"""Tests for the engine registry: the single source of engine names."""

import pytest

from repro.infer.registry import (
    CAP_EXPRESSION,
    CAP_SESSION,
    CAP_SET_THEORETIC,
    CAP_UNSAT_CORES,
    REGISTRY,
    EngineInfo,
    EngineRegistry,
    UnknownEngineError,
    unknown_engine_message,
)


class TestRegistryContents:
    def test_all_engines_registered(self):
        assert REGISTRY.names() == (
            "flow", "mycroft", "damas-milner", "pottier", "remy",
            "setrows",
        )

    def test_session_names(self):
        assert REGISTRY.session_names() == (
            "flow", "mycroft", "damas-milner", "pottier", "setrows",
        )

    def test_expression_names(self):
        assert REGISTRY.expression_names() == (
            "flow", "mycroft", "damas-milner", "remy", "setrows",
        )

    def test_capability_queries(self):
        assert REGISTRY.with_capability(CAP_UNSAT_CORES) == ("flow",)
        assert REGISTRY.with_capability(CAP_SET_THEORETIC) == ("setrows",)
        assert REGISTRY.info("setrows").has(CAP_SESSION)
        assert REGISTRY.info("remy").has(CAP_EXPRESSION)
        assert not REGISTRY.info("remy").has(CAP_SESSION)
        assert not REGISTRY.info("pottier").has(CAP_EXPRESSION)

    def test_as_dicts_shape(self):
        for entry in REGISTRY.as_dicts():
            assert set(entry) == {"name", "description", "capabilities"}
            assert entry["capabilities"] == sorted(entry["capabilities"])

    def test_markdown_table_lists_every_engine(self):
        table = REGISTRY.markdown_table()
        for name in REGISTRY.names():
            assert f"`{name}`" in table


class TestSessionCreation:
    @pytest.mark.parametrize("name", REGISTRY.session_names())
    def test_create_session_sets_name(self, name):
        assert REGISTRY.create_session(name).name == name

    def test_unknown_engine(self):
        with pytest.raises(UnknownEngineError) as err:
            REGISTRY.create_session("nope")
        assert str(err.value) == unknown_engine_message(
            "nope", REGISTRY.session_names())

    def test_expression_only_engine_is_not_a_session(self):
        with pytest.raises(UnknownEngineError):
            REGISTRY.create_session("remy")

    def test_session_only_engine_has_no_runner(self):
        with pytest.raises(UnknownEngineError):
            REGISTRY.expression_runner("pottier")


class TestRegistration:
    def test_duplicate_registration_rejected(self):
        registry = EngineRegistry()
        info = EngineInfo(
            name="x", description="d", capabilities=frozenset())
        registry.register(info)
        with pytest.raises(ValueError, match="already registered"):
            registry.register(info)

    def test_unknown_capability_rejected(self):
        with pytest.raises(ValueError, match="unknown capabilities"):
            EngineInfo(name="x", description="d",
                       capabilities=frozenset({"telepathy"}))

    def test_capability_entry_point_consistency(self):
        with pytest.raises(ValueError, match="make_session"):
            EngineInfo(name="x", description="d",
                       capabilities=frozenset({CAP_SESSION}))


class TestSingleSourceOfNames:
    """Every surface must agree with the registry, with no hard-coded
    engine tuples of its own."""

    def test_cli_choices_match_registry(self):
        from repro.cli import build_arg_parser

        parser = build_arg_parser()
        choices = {}
        stack = [parser]
        while stack:
            current = stack.pop()
            for action in current._actions:
                if action.dest == "engine" and action.choices:
                    choices.setdefault(
                        id(current), []).append(tuple(action.choices))
                if hasattr(action, "_name_parser_map"):
                    stack.extend(action._name_parser_map.values())
        flat = [c for group in choices.values() for c in group]
        assert flat, "no --engine options found"
        session = tuple(sorted(REGISTRY.session_names()))
        expression = tuple(sorted(REGISTRY.expression_names()))
        for choice in flat:
            assert choice in (session, expression)
        assert session in flat and expression in flat

    def test_daemon_accepts_exactly_registry_session_names(self):
        from repro.server.daemon import Daemon, DaemonConfig

        for name in REGISTRY.session_names():
            Daemon(config=DaemonConfig(engine=name))
        with pytest.raises(UnknownEngineError) as err:
            Daemon(config=DaemonConfig(engine="nope"))
        assert str(err.value) == unknown_engine_message(
            "nope", REGISTRY.session_names())

    def test_api_facade_matches_registry(self):
        from repro.api import available_engines, engine_info

        assert available_engines() == REGISTRY.as_dicts()
        assert engine_info("setrows")["capabilities"] == sorted(
            REGISTRY.info("setrows").capabilities)
        with pytest.raises(UnknownEngineError):
            engine_info("nope")
