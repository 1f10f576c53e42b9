"""Deeply nested statements: the parser's nesting limit and the
recursive passes behind it.

The parser rejects nesting deeper than ``MAX_NESTING`` with a typed
:class:`ParseError` (line and column of the offending statement), so the
CLI exits 2 instead of dying in a ``RecursionError``.  The recursive
passes that run on parsed programs — pretty-printing, procedure
inlining, CFG construction and validation — are checked at the deepest
nesting the parser accepts, and on a 300-deep AST built directly (the
depth the parser now refuses, still reachable through the AST API).
"""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.cfg.build import build_cfgs
from repro.cli import main
from repro.errors import ParseError
from repro.lang.ast_nodes import (
    Accept,
    Call,
    Condition,
    If,
    ProcDecl,
    Program,
    Send,
    TaskDecl,
    walk_statements,
)
from repro.lang.parser import MAX_NESTING, parse_program, parse_task_body
from repro.lang.pretty import pretty
from repro.lang.validate import validate_program
from repro.transforms.inline import inline_procedures

DEEP = 300


def _nested_source(depth: int, kind: str = "if") -> str:
    body = "send b.m;"
    for _ in range(depth):
        if kind == "if":
            body = f"if ? then {body} end if;"
        elif kind == "while":
            body = f"while ? loop {body} end loop;"
        else:
            body = f"for i in 1 .. 2 loop {body} end loop;"
    return (
        f"program deep; task a is begin {body} end; "
        "task b is begin accept m; end;"
    )


def _elsif_source(arms: int) -> str:
    tail = " ".join("elsif ? then send b.m;" for _ in range(arms - 1))
    return (
        f"program deep; task a is begin if ? then send b.m; {tail} "
        "end if; end; task b is begin accept m; end;"
    )


def _deep_body(depth: int):
    body = (Send(task="b", message="m"),)
    for _ in range(depth):
        body = (If(condition=Condition.unknown(), then_body=body),)
    return body


def _deep_program(depth: int) -> Program:
    return Program(
        name="deep",
        tasks=(
            TaskDecl(name="a", body=_deep_body(depth)),
            TaskDecl(name="b", body=(Accept(message="m"),)),
        ),
    )


def _depth_of(body) -> int:
    """Nesting depth of a chain of Ifs (each level holds one If)."""
    depth = 0
    while True:
        nested = [stmt for stmt in body if isinstance(stmt, If)]
        if not nested:
            return depth
        depth += 1
        body = nested[0].then_body + nested[0].else_body


class TestParserLimit:
    @pytest.mark.parametrize("kind", ["if", "while", "for"])
    def test_deepest_accepted_nesting_parses(self, kind):
        program = parse_program(_nested_source(MAX_NESTING, kind))
        assert len(list(walk_statements(program.task("a").body))) == (
            MAX_NESTING + 1
        )

    @pytest.mark.parametrize("kind", ["if", "while", "for"])
    def test_one_level_deeper_is_a_parse_error(self, kind):
        with pytest.raises(ParseError, match="nested more than") as exc:
            parse_program(_nested_source(MAX_NESTING + 1, kind))
        assert exc.value.line == 1
        assert exc.value.column > 0

    def test_three_hundred_nested_ifs_are_a_parse_error(self):
        with pytest.raises(ParseError, match=f"more than {MAX_NESTING}"):
            parse_program(_nested_source(DEEP))

    def test_elsif_arms_count_as_nesting(self):
        # an elsif chain desugars into nested Ifs, one level per arm
        program = parse_program(_elsif_source(MAX_NESTING))
        assert _depth_of(program.task("a").body) == MAX_NESTING
        with pytest.raises(ParseError, match="nested more than"):
            parse_program(_elsif_source(MAX_NESTING + 1))

    def test_error_names_the_offending_line(self):
        lines = ["if ? then" for _ in range(MAX_NESTING + 1)]
        src = "\n".join(
            ["send b.m;"] + lines + ["null;"] + ["end if;"] * len(lines)
        )
        with pytest.raises(ParseError) as exc:
            parse_task_body(src)
        assert exc.value.line == MAX_NESTING + 2

    def test_siblings_do_not_accumulate_depth(self):
        # depth is nesting, not the number of compound statements
        one = "if ? then send b.m; end if; "
        program = parse_program(
            "program wide; task a is begin "
            + one * (3 * MAX_NESTING)
            + "end; task b is begin accept m; end;"
        )
        assert len(program.task("a").body) == 3 * MAX_NESTING


class TestRecursivePasses:
    """pretty, inline, cfg/build and validate at the parser's limit and
    on a 300-deep AST built without the parser."""

    @pytest.mark.parametrize("depth", [MAX_NESTING, DEEP])
    def test_pretty(self, depth):
        program = _deep_program(depth)
        text = pretty(program)
        assert text.count("end if;") == depth
        if depth <= MAX_NESTING:
            assert parse_program(text) == program

    @pytest.mark.parametrize("depth", [MAX_NESTING, DEEP])
    def test_inline(self, depth):
        program = Program(
            name="deep",
            tasks=(
                TaskDecl(name="a", body=(Call(name="p"),)),
                TaskDecl(name="b", body=(Accept(message="m"),)),
            ),
            procedures=(ProcDecl(name="p", body=_deep_body(depth)),),
        )
        inlined, changed = inline_procedures(program)
        assert changed
        assert _depth_of(inlined.task("a").body) == depth

    @pytest.mark.parametrize("depth", [MAX_NESTING, DEEP])
    def test_cfg_build(self, depth):
        cfgs = build_cfgs(_deep_program(depth))
        assert set(cfgs) == {"a", "b"}
        # one branch and one join per if, plus the send, entry and exit
        assert len(cfgs["a"].nodes) >= 2 * depth

    @pytest.mark.parametrize("depth", [MAX_NESTING, DEEP])
    def test_validate(self, depth):
        report = validate_program(_deep_program(depth))
        assert report.fully_matched


class TestCli:
    def test_deep_nesting_exits_two(self, tmp_path, capsys):
        path = tmp_path / "deep.adl"
        path.write_text(_nested_source(DEEP))
        assert main([str(path)]) == 2
        err = capsys.readouterr().err
        assert "nested more than" in err and "line 1" in err

    def test_deep_nesting_exits_two_without_traceback(self, tmp_path):
        path = tmp_path / "deep.adl"
        path.write_text(_nested_source(DEEP))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", str(path)],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 2
        assert "Traceback" not in proc.stderr
        assert proc.stderr.startswith("error: statements nested more than")
