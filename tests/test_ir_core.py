"""Unit tests for the IR core: values, operations, blocks, cloning."""

import pytest

from repro.ir import (Block, Builder, F32, INDEX, I32, Module, Operation,
                      Region, VerificationError, single_block_region,
                      verify_module, verify_op)
from repro.dialects import arith, func, scf


def make_func(name="f", inputs=(INDEX,), arg_names=("n",)):
    from repro.ir import FunctionType
    module = Module()
    builder = Builder(module.body)
    f = func.func(builder, name, FunctionType(tuple(inputs), ()), arg_names)
    return module, f, Builder(f.body_block())


class TestValues:
    def test_result_links_to_owner(self):
        op = Operation("test.op", [], [I32, F32])
        assert op.result(0).owner is op
        assert op.result(1).index == 1

    def test_use_list_tracks_operands(self):
        producer = Operation("test.producer", [], [I32])
        value = producer.result()
        consumer = Operation("test.consumer", [value, value], [])
        assert [(use.owner, use.index) for use in value.uses] == \
            [(consumer, 0), (consumer, 1)]

    def test_replace_all_uses(self):
        p1 = Operation("test.p1", [], [I32])
        p2 = Operation("test.p2", [], [I32])
        consumer = Operation("test.c", [p1.result()], [])
        p1.result().replace_all_uses_with(p2.result())
        assert consumer.operand(0) is p2.result()
        assert not p1.result().has_uses()
        assert len(p2.result().uses) == 1

    def test_set_operand_updates_uses(self):
        p1 = Operation("test.p1", [], [I32])
        p2 = Operation("test.p2", [], [I32])
        c = Operation("test.c", [p1.result()], [])
        c.set_operand(0, p2.result())
        assert not p1.result().has_uses()
        assert [use.owner for use in p2.result().uses] == [c]


class TestStructure:
    def test_parent_links(self):
        module, f, builder = make_func()
        c = arith.index_constant(builder, 4)
        func.return_(builder)
        assert c.owner.parent is f.body_block()
        assert c.owner.parent_op is f
        assert f.parent_op is module.op

    def test_ancestors(self):
        module, f, builder = make_func()
        c0 = arith.index_constant(builder, 0)
        c4 = arith.index_constant(builder, 4)
        c1 = arith.index_constant(builder, 1)
        loop = scf.for_(builder, c0, c4, c1)
        inner = Builder(loop.body_block())
        inner_const = arith.index_constant(inner, 7)
        scf.yield_(inner)
        func.return_(builder)
        chain = list(inner_const.owner.ancestors())
        assert chain[0] is loop
        assert chain[1] is f
        assert chain[2] is module.op
        assert list(loop.ancestors()) == chain[1:]

    def test_erase_detaches_and_drops_uses(self):
        module, f, builder = make_func()
        c = arith.index_constant(builder, 3)
        use = builder.create("test.use", [c], [])
        func.return_(builder)
        use.erase()
        assert not c.has_uses()
        assert use not in f.body_block().ops

    def test_erase_leaves_no_operands_results_or_regions(self):
        module, f, builder = make_func()
        c0 = arith.index_constant(builder, 0)
        c1 = arith.index_constant(builder, 1)
        loop = scf.for_(builder, c0, c1, c1)
        inner = Builder(loop.body_block())
        hidden = arith.index_constant(inner, 42)
        user = inner.create("test.use", [hidden, c1], [])
        scf.yield_(inner)
        func.return_(builder)
        body = loop.body_block()
        loop.erase()
        assert loop.regions == [] and loop.results == []
        assert loop.num_operands == 0 and user.num_operands == 0
        assert hidden.owner.results == [] and not hidden.has_uses()
        assert body.ops == [] and body.args == []
        # the surviving constants no longer list the dead ops as users
        assert not c0.has_uses() and not c1.has_uses()
        leaf = c0.owner
        leaf.erase()
        assert leaf.results == [] and leaf.parent is None
        verify_module(module)

    def test_erase_with_live_uses_raises(self):
        _, _, builder = make_func()
        c = arith.index_constant(builder, 3)
        builder.create("test.use", [c], [])
        with pytest.raises(ValueError):
            c.owner.erase()

    def test_walk_order(self):
        module, f, builder = make_func()
        c0 = arith.index_constant(builder, 0)
        c4 = arith.index_constant(builder, 4)
        c1 = arith.index_constant(builder, 1)
        loop = scf.for_(builder, c0, c4, c1)
        inner = Builder(loop.body_block())
        arith.index_constant(inner, 9)
        scf.yield_(inner)
        func.return_(builder)
        pre, post = [], []
        module.op.walk_preorder(lambda op: pre.append(op.name))
        module.op.walk(lambda op: post.append(op.name))
        assert pre[0] == "builtin.module"
        assert post[-1] == "builtin.module"
        assert pre.index("scf.for") < pre.index("scf.yield")


class TestClone:
    def test_clone_remaps_nested_values(self):
        module, f, builder = make_func()
        c0 = arith.index_constant(builder, 0)
        c8 = arith.index_constant(builder, 8)
        c1 = arith.index_constant(builder, 1)
        loop = scf.for_(builder, c0, c8, c1)
        inner = Builder(loop.body_block())
        iv = loop.body_block().arg(0)
        doubled = arith.addi(inner, iv, iv)
        scf.yield_(inner)
        func.return_(builder)

        clone = loop.clone()
        # The clone's nested add must reference the clone's own iv.
        cloned_add = clone.body_block().ops[0]
        assert cloned_add.operand(0) is clone.body_block().arg(0)
        assert cloned_add.operand(0) is not iv
        # External operands (bounds) are shared when not in the map.
        assert clone.operand(0) is c0

    def test_clone_with_value_map(self):
        _, _, builder = make_func()
        a = arith.index_constant(builder, 1)
        b = arith.index_constant(builder, 2)
        add = arith.addi(builder, a, b).owner
        clone = add.clone({a: b})
        assert clone.operand(0) is b
        assert clone.operand(1) is b

    def test_clone_preserves_attributes_deeply(self):
        _, _, builder = make_func()
        c0 = arith.index_constant(builder, 0)
        c1 = arith.index_constant(builder, 1)
        par = scf.parallel(builder, [c0], [c1], [c1], gpu_kind="threads")
        inner = Builder(par.body_block())
        scf.yield_(inner)
        clone = par.clone()
        assert clone.attr("gpu.kind") == "threads"
        clone.attributes["gpu.kind"] = "blocks"
        assert par.attr("gpu.kind") == "threads"


class TestSlots:
    """Every IR class is slotted: a subclass that forgets ``__slots__``
    silently brings the per-instance ``__dict__`` back, so check the
    instances themselves, built and cloned."""

    def _instances(self, op):
        region = op.region(0)
        block = region.blocks[0]
        return {
            "Operation": op,
            "OpResult": block.ops[0].result(),
            "BlockArgument": block.arg(0),
            "Block": block,
            "Region": region,
        }

    def _loop(self):
        _, f, builder = make_func()
        c0 = arith.index_constant(builder, 0)
        c4 = arith.index_constant(builder, 4)
        c1 = arith.index_constant(builder, 1)
        loop = scf.for_(builder, c0, c4, c1)
        inner = Builder(loop.body_block())
        iv = loop.body_block().arg(0)
        arith.addi(inner, iv, iv)
        scf.yield_(inner)
        func.return_(builder)
        return loop

    @pytest.mark.parametrize("cloned", [False, True],
                             ids=["built", "cloned"])
    def test_instances_have_no_dict(self, cloned):
        from repro.ir import BlockArgument, OpResult, Value
        loop = self._loop()
        if cloned:
            loop = loop.clone()
        loop.stable_uid()  # the lazily filled slot
        instances = self._instances(loop)
        assert isinstance(instances["OpResult"], OpResult)
        assert isinstance(instances["BlockArgument"], BlockArgument)
        # a bare Value is the sixth class
        instances["Value"] = Value(INDEX)
        assert len(instances) == 6
        for kind, instance in instances.items():
            assert not hasattr(instance, "__dict__"), kind
            with pytest.raises(AttributeError):
                instance.not_a_field = 1

    def test_stable_uid_is_per_object(self):
        loop = self._loop()
        uid = loop.stable_uid()
        assert loop.stable_uid() == uid
        clone = loop.clone()
        assert clone.stable_uid() not in (uid, None)


class TestVerifier:
    def test_valid_module_verifies(self):
        module, f, builder = make_func()
        func.return_(builder)
        verify_module(module)

    def test_dominance_violation_detected(self):
        module, f, builder = make_func()
        use = builder.create("test.use", [], [])
        c = arith.index_constant(builder, 1)
        # Manually append an operand defined *after* the user.
        use._append_operand(c)
        func.return_(builder)
        with pytest.raises(VerificationError):
            verify_module(module)

    def test_region_value_not_visible_outside(self):
        module, f, builder = make_func()
        c0 = arith.index_constant(builder, 0)
        c1 = arith.index_constant(builder, 1)
        loop = scf.for_(builder, c0, c1, c1)
        inner = Builder(loop.body_block())
        hidden = arith.index_constant(inner, 42)
        scf.yield_(inner)
        builder.create("test.use", [hidden], [])
        func.return_(builder)
        with pytest.raises(VerificationError):
            verify_module(module)

    def test_broken_use_list_detected(self):
        module, f, builder = make_func()
        c = arith.index_constant(builder, 1)
        use = builder.create("test.use", [c], [])
        func.return_(builder)
        c.uses.clear()  # corrupt
        with pytest.raises(VerificationError):
            verify_module(module)

    def test_duplicate_use_record_detected(self):
        from repro.ir import Use
        module, f, builder = make_func()
        c = arith.index_constant(builder, 1)
        use = builder.create("test.use", [c], [])
        func.return_(builder)
        c.uses.append(Use(use, 0))  # corrupt: the slot is listed twice
        with pytest.raises(VerificationError, match="2 use records"):
            verify_module(module)

    def test_dangling_use_of_inner_value_detected(self):
        # a user detached without dropping its uses still sits in the use
        # list of a value defined inside the verified op
        module, f, builder = make_func()
        c0 = arith.index_constant(builder, 0)
        c1 = arith.index_constant(builder, 1)
        loop = scf.for_(builder, c0, c1, c1)
        inner = Builder(loop.body_block())
        hidden = arith.index_constant(inner, 42)
        user = inner.create("test.use", [hidden], [])
        scf.yield_(inner)
        func.return_(builder)
        verify_op(loop)
        user.detach()
        with pytest.raises(VerificationError, match="dangling"):
            verify_op(loop)
        with pytest.raises(VerificationError, match="dangling"):
            verify_module(module)

    def test_func_missing_trailing_return_rejected(self):
        # regression: a truncated func body used to verify clean
        module, f, builder = make_func()
        arith.index_constant(builder, 1)
        with pytest.raises(VerificationError, match="func.return"):
            verify_module(module)

    def test_parallel_missing_trailing_yield_rejected(self):
        module, f, builder = make_func()
        c0 = arith.index_constant(builder, 0)
        c1 = arith.index_constant(builder, 1)
        loop = scf.parallel(builder, [c0], [c1], [c1])
        # body left without its scf.yield
        func.return_(builder)
        with pytest.raises(VerificationError, match="scf.yield"):
            verify_module(module)

    def test_for_truncated_body_rejected(self):
        module, f, builder = make_func()
        c0 = arith.index_constant(builder, 0)
        c1 = arith.index_constant(builder, 1)
        loop = scf.for_(builder, c0, c1, c1)
        inner = Builder(loop.body_block())
        scf.yield_(inner)
        func.return_(builder)
        verify_module(module)
        loop.body_block().ops[-1].erase()  # truncate the region
        with pytest.raises(VerificationError):
            verify_module(module)

    def test_terminator_mid_block_still_rejected(self):
        module, f, builder = make_func()
        func.return_(builder)
        arith.index_constant(builder, 1)
        func.return_(builder)
        with pytest.raises(VerificationError, match="middle"):
            verify_module(module)

    def test_gpu_wrapper_needs_no_terminator(self):
        from repro.dialects import polygeist
        module, f, builder = make_func()
        wrapper = polygeist.gpu_wrapper(builder)
        Builder(wrapper.body_block()).create("test.op", [], [])
        func.return_(builder)
        verify_module(module)


class TestVerifierPerformance:
    def test_largest_benchsuite_module_verifies_subsecond(self):
        # guards the incremental dominance walk: the old per-op visible-set
        # rebuild made whole-module verification quadratic
        import time

        from repro.benchsuite import BENCHMARKS
        from repro.frontend import ModuleGenerator, parse_translation_unit

        largest, largest_ops = None, 0
        for bench in BENCHMARKS.values():
            generator = ModuleGenerator(parse_translation_unit(bench.source))
            seen = set()
            for kernel, grid, block in bench.iter_launches(
                    bench.verify_size):
                key = (kernel, len(grid), tuple(block))
                if key not in seen:
                    seen.add(key)
                    generator.get_launch_wrapper(kernel, len(grid),
                                                 tuple(block))
            counter = []
            generator.module.op.walk_preorder(
                lambda _op: counter.append(None))
            count = len(counter)
            if count > largest_ops:
                largest, largest_ops = generator.module, count
        assert largest_ops > 100
        start = time.monotonic()
        verify_module(largest)
        assert time.monotonic() - start < 1.0


class TestBuilder:
    def test_sequential_insert_order(self):
        _, f, builder = make_func()
        arith.index_constant(builder, 1)
        arith.index_constant(builder, 2)
        names = [op.attr("value") for op in f.body_block().ops]
        assert names == [1, 2]

    def test_insert_before_and_after(self):
        _, f, builder = make_func()
        first = arith.index_constant(builder, 1).owner
        last = arith.index_constant(builder, 3).owner
        builder.set_insertion_point_after(first)
        arith.index_constant(builder, 2)
        values = [op.attr("value") for op in f.body_block().ops]
        assert values == [1, 2, 3]

    def test_at_end_context_restores(self):
        _, f, builder = make_func()
        c0 = arith.index_constant(builder, 0)
        c1 = arith.index_constant(builder, 1)
        loop = scf.for_(builder, c0, c1, c1)
        with builder.at_end(loop.body_block()):
            scf.yield_(builder)
        # restored: inserts back into the function block
        arith.index_constant(builder, 5)
        assert f.body_block().ops[-1].attr("value") == 5


class TestModule:
    def test_func_lookup(self):
        module, f, builder = make_func("kernel_a")
        func.return_(builder)
        assert module.func("kernel_a") is f
        assert module.has_func("kernel_a")
        assert not module.has_func("missing")
        with pytest.raises(KeyError):
            module.func("missing")

    def test_module_clone_is_independent(self):
        module, f, builder = make_func()
        func.return_(builder)
        clone = module.clone()
        clone.func("f").attributes["sym_name"] = "renamed"
        assert module.func("f").attr("sym_name") == "f"


class TestBlockOwnership:
    def test_append_rejects_op_owned_by_another_block(self):
        _, f_a, builder_a = make_func("a")
        _, f_b, _ = make_func("b")
        op = arith.index_constant(builder_a, 1).owner
        with pytest.raises(ValueError, match="another block"):
            f_b.body_block().append(op)
        # the op must not have been stolen from its original block
        assert op.parent is f_a.body_block()
        assert op in f_a.body_block().ops
        assert op not in f_b.body_block().ops

    def test_insert_rejects_op_owned_by_another_block(self):
        _, f_a, builder_a = make_func("a")
        _, f_b, _ = make_func("b")
        op = arith.index_constant(builder_a, 1).owner
        with pytest.raises(ValueError, match="another block"):
            f_b.body_block().insert(0, op)
        assert op.parent is f_a.body_block()

    def test_detach_then_append_moves_the_op(self):
        _, f_a, builder_a = make_func("a")
        _, f_b, _ = make_func("b")
        op = arith.index_constant(builder_a, 1).owner
        op.detach()
        f_b.body_block().append(op)
        assert op.parent is f_b.body_block()
        assert op not in f_a.body_block().ops
