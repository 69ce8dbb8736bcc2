"""The interpreter leg of the equivalence suites.

minidb compiles the batch kernel of every expression position of every
plan it runs in one place, ``Executor._prepare``, and ``Executor._compile``
reads it from the plan's compiled map. :class:`InterpretingExecutor` runs
each position on the AST interpreter instead: it ignores the kernel where
``_compile`` reads it and changes nothing of what is compiled or kept. So
a plan a kernel executor prepared on the same database reaches both legs,
and the interpreter still runs at every site (scan predicates, join
residual / ON, WHERE, projection, group keys, aggregate arguments,
UPDATE/DELETE targets). With ``batch_size = 1`` it is the reference the
kernels must match, result and error alike.

The test modules beside it import it by name (``from interpreter_leg
import use_engine``), as pytest puts their directory on ``sys.path``.
"""

from repro.minidb.executor import Executor
from repro.minidb.expressions import Scope


class InterpretingExecutor(Executor):
    """An executor that reads no kernel: every position is interpreted."""

    def _compile(self, expr, names, evaluator):
        names.compiled[id(expr)]  # KeyError: the plan compiled no such position
        ignored = Scope(names.slots, names.relation, names.outer, names.params, {id(expr): None})
        return super()._compile(expr, ignored, evaluator)


def use_engine(db, compiled: bool) -> None:
    """Run ``db``'s statements on batch kernels (``compiled``) or on the
    interpreter from now on."""
    db.executor = (Executor if compiled else InterpretingExecutor)(db)
