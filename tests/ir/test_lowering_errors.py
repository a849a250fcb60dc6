"""``lower`` refuses a method body it cannot translate into a PVPG.

Each malformed body fails with a typed error that names the method:
:class:`~repro.core.pvpg_builder.PVPGBuildError` for what the traversal
meets (a value used before its definition, an unterminated block, a
statement it does not know, a jump to a block that is not a merge), and
``KeyError`` for a jump to a block the method does not have, as the
control-flow utilities of :mod:`repro.ir.cfg` report it.
"""

import pytest

from repro.core.pvpg_builder import PVPGBuildError
from repro.ir.arena import lower
from repro.ir.builder import ProgramBuilder
from repro.ir.instructions import Jump, LoadField, Return
from repro.ir.values import Value


def _program():
    """``Main.f(x)``: ``if x < 1`` then a field load, else return ``x``."""
    pb = ProgramBuilder()
    pb.declare_class("Main")
    pb.declare_field("Main", "next", "Main")
    mb = pb.method("Main", "f", params=["int"], return_type="int",
                   is_static=True, param_names=["x"])
    x = mb.param(0)
    one = mb.assign_int(1)
    mb.if_lt(x, one, "small", "large")
    mb.label("small")
    mb.return_(one)
    mb.label("large")
    mb.return_(x)
    pb.finish_method(mb)
    pb.add_entry_point("Main.f")
    return pb.program


def _block(program, name):
    return program.method("Main.f").block_by_name(name)


def test_a_well_formed_body_lowers():
    assert lower(_program()).num_methods == 1


def test_use_before_definition():
    program = _program()
    ghost = Value("ghost")
    _block(program, "small").statements.append(
        LoadField(Value("y"), ghost, "next"))
    with pytest.raises(PVPGBuildError,
                       match="value 'ghost' has no flow in Main.f"):
        lower(program)


def test_unterminated_block():
    program = _program()
    _block(program, "large").end = None
    with pytest.raises(PVPGBuildError,
                       match="block 'large' in Main.f is not terminated"):
        lower(program)


def test_unsupported_statement():
    program = _program()
    _block(program, "small").statements.append(Return())
    with pytest.raises(PVPGBuildError,
                       match=r"unsupported statement Return\(.*\) in Main.f"):
        lower(program)


def test_jump_to_a_block_that_is_not_a_merge():
    program = _program()
    _block(program, "large").end = Jump("small")
    with pytest.raises(PVPGBuildError,
                       match="jump to 'small', which is not a merge block, "
                             "in Main.f"):
        lower(program)


def test_jump_to_an_undefined_block():
    program = _program()
    _block(program, "large").end = Jump("nowhere")
    with pytest.raises(KeyError,
                       match="undefined block 'nowhere' in Main.f"):
        lower(program)
