"""Unit tests for incremental CallGraph maintenance: every add / remove /
register / unregister sequence must leave the graph element-wise equal to a
from-scratch rebuild of the same module."""

from repro.ir import IRBuilder, Module
from repro.ir import types as ty
from repro.ir.callgraph import CallGraph

from tests.helpers import assert_matches_rebuild


def make_fn(module, name, callees=(), address_of=None):
    fn = module.create_function(name, ty.function_type(ty.I32, [ty.I32]))
    builder = IRBuilder(fn.append_block("entry"))
    value = fn.arguments[0]
    for callee in callees:
        value = builder.call(callee, [value])
    if address_of is not None:
        # store a function's address: a non-callee, address-taking use
        builder.store(address_of, builder.alloca(address_of.type))
    builder.ret(value)
    return fn


class TestIncrementalUpdates:
    def test_add_function_with_calls(self):
        module = Module("m")
        callee = make_fn(module, "callee")
        graph = CallGraph(module)
        caller = make_fn(module, "caller", [callee, callee])
        graph.add_function(caller)
        assert_matches_rebuild(graph, module)
        assert graph.callers.get("callee") == {"caller"}
        assert len(graph.direct_call_sites(callee)) == 2

    def test_remove_function_drops_edges_and_sites(self):
        module = Module("m")
        callee = make_fn(module, "callee")
        caller = make_fn(module, "caller", [callee])
        graph = CallGraph(module)
        graph.remove_function(caller)
        module.remove_function(caller)
        assert_matches_rebuild(graph, module)
        assert graph.callers.get("callee") == set()
        assert "caller" not in graph.callees

    def test_multi_edge_refcounting(self):
        # two call sites realise one edge; dropping one keeps the edge
        module = Module("m")
        callee = make_fn(module, "callee")
        caller = make_fn(module, "caller", [callee, callee])
        graph = CallGraph(module)
        site = graph.direct_call_sites(callee)[0]
        graph.unregister_instruction("caller", site)
        site.erase_from_parent()
        assert graph.callers.get("callee") == {"caller"}
        assert_matches_rebuild(graph, module)
        remaining = graph.direct_call_sites(callee)[0]
        graph.unregister_instruction("caller", remaining)
        remaining.erase_from_parent()
        assert graph.callers.get("callee") == set()
        assert_matches_rebuild(graph, module)

    def test_body_replacement_roundtrip(self):
        module = Module("m")
        a = make_fn(module, "a")
        b = make_fn(module, "b")
        caller = make_fn(module, "caller", [a])
        graph = CallGraph(module)
        # rebuild caller's body to call b instead of a
        graph.unregister_body(caller)
        caller.drop_body()
        builder = IRBuilder(caller.append_block("entry"))
        builder.ret(builder.call(b, [caller.arguments[0]]))
        graph.register_body(caller)
        assert_matches_rebuild(graph, module)
        assert graph.callees.get("caller") == {"b"}
        assert graph.callers.get("a") == set()

    def test_address_taken_counting(self):
        module = Module("m")
        target = make_fn(module, "target")
        user1 = make_fn(module, "user1", address_of=target)
        make_fn(module, "user2", address_of=target)
        graph = CallGraph(module)
        assert graph.is_address_taken(target)
        # dropping one of two takers keeps the flag
        graph.unregister_body(user1)
        user1.drop_body()
        builder = IRBuilder(user1.append_block("entry"))
        builder.ret(user1.arguments[0])
        graph.register_body(user1)
        assert graph.is_address_taken(target)
        assert_matches_rebuild(graph, module)

    def test_address_taken_set_clears_with_last_reference(self):
        module = Module("m")
        target = make_fn(module, "target")
        user = make_fn(module, "user", address_of=target)
        graph = CallGraph(module)
        assert graph.is_address_taken(target)
        graph.unregister_body(user)
        user.drop_body()
        builder = IRBuilder(user.append_block("entry"))
        builder.ret(user.arguments[0])
        graph.register_body(user)
        # the live-reference set empties, exactly like a rebuild's would;
        # the function's sticky address_taken attribute stays (rebuild
        # semantics: set for current takers, never cleared)
        assert not graph.is_address_taken(target)
        assert target.address_taken is True
        assert_matches_rebuild(graph, module)

    def test_function_argument_passed_as_data_is_address_taken(self):
        module = Module("m")
        target = make_fn(module, "target")
        fn = module.create_function("indirect", ty.function_type(ty.I32, [ty.I32]))
        builder = IRBuilder(fn.append_block("entry"))
        call = builder.call(target, [fn.arguments[0]])
        graph = CallGraph(module)
        assert not graph.is_address_taken(target)
        # a call passing a *function* as a non-callee operand takes its address
        taker = module.create_function("taker", ty.function_type(ty.I32, [ty.I32]))
        tb = IRBuilder(taker.append_block("entry"))
        site = tb.call(target, [taker.arguments[0]])
        tb.ret(site)
        graph.add_function(taker)
        assert_matches_rebuild(graph, module)
        builder.ret(call)

    def test_rebuild_resets_incremental_state(self):
        module = Module("m")
        callee = make_fn(module, "callee")
        make_fn(module, "caller", [callee])
        graph = CallGraph(module)
        graph.rebuild()
        graph.rebuild()  # idempotent: counts must not accumulate
        assert_matches_rebuild(graph, module)
        assert len(graph.direct_call_sites(callee)) == 1
