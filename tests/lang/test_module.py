"""Tests for the module layer: parsing, dependencies, fingerprints."""

import pytest

from repro.lang import (
    MAIN_DECL,
    LexError,
    Module,
    ParseError,
    module_from_expr,
    module_to_expr,
    parse,
    parse_module,
    pretty,
    tokenize,
)
from repro.lang import module as module_layer
from repro.lang.module import Decl

#: One binding-shaped and one expression-shaped source: the two paths
#: of ``parse_module``.
BINDING_AND_EXPRESSION = ["a = 1;\nb = plus a 1", "plus 1\n  2"]


class TestParseModule:
    def test_binding_sequence_with_let_and_body(self):
        module = parse_module(
            r"let f = \x -> x; g = f 1 in g"
        )
        assert module.names() == ("f", "g", MAIN_DECL)

    def test_binding_sequence_without_let(self):
        module = parse_module(r"f = \x -> x; g = f 1")
        assert module.names() == ("f", "g")

    def test_binding_params_desugar_to_lambdas(self):
        module = parse_module("add2 x y = plus x y")
        assert pretty(module["add2"].expr).startswith("\\x")

    def test_trailing_semicolon_tolerated(self):
        module = parse_module("a = 1; b = 2;")
        assert module.names() == ("a", "b")

    def test_plain_expression_becomes_main_decl(self):
        module = parse_module("plus 1 2")
        assert module.names() == (MAIN_DECL,)

    def test_let_expression_chain_is_lifted(self):
        module = parse_module("let a = 1 in let b = a in plus a b")
        assert module.names() == ("a", "b", MAIN_DECL)

    def test_main_name_collision_appends_underscore(self):
        module = parse_module("let it = 1 in plus it 1")
        assert module.names() == ("it", "it_")

    def test_duplicate_declaration_rejected(self):
        with pytest.raises(ParseError):
            parse_module("a = 1; a = 2")

    def test_junk_after_declarations_rejected(self):
        with pytest.raises(ParseError):
            parse_module("a = 1; b = 2 }")

    def test_junk_after_expression_rejected(self):
        with pytest.raises(ParseError):
            parse_module("plus 1 2 }")

    @pytest.mark.parametrize("source", BINDING_AND_EXPRESSION)
    def test_source_is_tokenized_once(self, source, monkeypatch):
        calls = []

        def counting(text):
            calls.append(text)
            return tokenize(text)

        monkeypatch.setattr(module_layer, "tokenize", counting)
        parse_module(source)
        assert calls == [source]

    @pytest.mark.parametrize("source", BINDING_AND_EXPRESSION)
    def test_lex_error_comes_from_tokenize(self, source):
        source += " $"
        with pytest.raises(LexError) as expected:
            tokenize(source)
        with pytest.raises(LexError) as raised:
            parse_module(source)
        assert str(raised.value) == str(expected.value)
        assert raised.value.span == expected.value.span
        assert raised.value.span.line == 2


class TestDependencies:
    def test_direct_dependencies_in_order(self):
        module = parse_module(
            "a = 1; b = plus a 1; c = plus a b; d = 4"
        )
        assert module.dependencies() == {
            "a": (),
            "b": ("a",),
            "c": ("a", "b"),
            "d": (),
        }

    def test_self_reference_is_recursion_not_dependency(self):
        module = parse_module(
            r"f = \n -> if eq n 0 then 0 else f (minus n 1)"
        )
        assert module.dependencies()["f"] == ()

    def test_transitive_dependents(self):
        module = parse_module(
            "a = 1; b = plus a 1; c = plus b 1; d = 4"
        )
        dependents = module.dependents()
        assert dependents["a"] == frozenset({"b", "c"})
        assert dependents["b"] == frozenset({"c"})
        assert dependents["d"] == frozenset()

    def test_shadowing_later_rebinding_stops_lifting(self):
        # The inner let rebinding `a` cannot be lifted into a duplicate
        # top-level declaration; it stays inside the body declaration.
        module = parse_module("let a = 1 in let a = 2 in a")
        assert module.names() == ("a", MAIN_DECL)


class TestFingerprints:
    def test_span_independent(self):
        a = parse_module("f =    \\x ->     x")["f"]
        b = parse_module("f = \\x -> x")["f"]
        assert a.fingerprint == b.fingerprint

    def test_body_sensitive(self):
        a = parse_module("f = 1")["f"]
        b = parse_module("f = 2")["f"]
        assert a.fingerprint != b.fingerprint

    def test_name_sensitive(self):
        module = parse_module("f = 1; g = 1")
        assert module["f"].fingerprint != module["g"].fingerprint


class TestEditsAndConversions:
    def test_with_decl_replaces_one_declaration(self):
        module = parse_module("a = 1; b = plus a 1")
        edited = module.with_decl("a", parse("2"))
        assert pretty(edited["a"].expr) == "2"
        assert pretty(edited["b"].expr) == pretty(module["b"].expr)
        assert module.names() == edited.names()

    def test_with_decl_unknown_name(self):
        module = parse_module("a = 1")
        with pytest.raises(KeyError):
            module.with_decl("nope", parse("2"))

    def test_module_expr_round_trip(self):
        module = parse_module(r"f = \x -> x; g = f 1")
        expr = module_to_expr(module)
        lifted = module_from_expr(expr)
        assert lifted.names() == module.names()
        assert [pretty(d.expr) for d in lifted] == [
            pretty(d.expr) for d in module
        ]

    def test_empty_module_to_expr_rejected(self):
        with pytest.raises(ValueError):
            module_to_expr(Module(()))

    def test_container_protocol(self):
        module = parse_module("a = 1; b = 2")
        assert len(module) == 2
        assert "a" in module and "z" not in module
        assert [decl.name for decl in module] == ["a", "b"]
        assert isinstance(module["a"], Decl)
