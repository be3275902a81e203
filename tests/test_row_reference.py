"""The reference executor stays a reference.

``executor/row_ops.py`` (``executor_mode="row"``) is what every
differential holds ``executor/batch_ops.py`` to, which is only worth
something while the two are independent implementations: production
never enters a reference operator, and neither file calls into the
other. What both run lives in ``slice_runner.py`` — the row sources
(scans that only exist as rows, ``Result``), the nested-loop pair walk
and the charge helpers.
"""

import inspect

import pytest

from repro.executor import batch_ops, row_ops
from repro.executor.batch_ops import BatchOperators
from repro.executor.row_ops import RowOperators
from repro.tpch import QUERIES
from repro.bench.statements import build_session, statements


def _methods(cls):
    return sorted(
        name
        for name, value in vars(cls).items()
        if inspect.isfunction(value) or isinstance(value, staticmethod)
    )


def test_batch_mode_never_enters_a_reference_operator(monkeypatch):
    """All 22 TPC-H statements, the ten short templates and the canary's
    partitioned / view / external (row-source) statements in batch mode,
    with every ``RowOperators`` method raising."""
    session, data = build_session()
    engine = session.engine
    assert engine.executor_mode == "batch"
    sqls = [stmt for number in sorted(QUERIES) for stmt in QUERIES[number]]
    sqls += statements(data).values()
    reference = _methods(RowOperators)
    assert {"_run_node", "_operator_rows", "_run_hash_join", "_run_motion"} <= set(
        reference
    )

    def entered(name):
        def raiser(*args, **kwargs):
            raise AssertionError(f"entered RowOperators.{name}")

        return raiser

    for name in reference:
        monkeypatch.setattr(RowOperators, name, entered(name))
    for sql in sqls:
        session.execute(sql)
    # The patch bites: the reference executor cannot take a step.
    engine.executor_mode = "row"
    with pytest.raises(AssertionError, match="entered RowOperators._run_node"):
        session.execute("SELECT count(*) FROM nation")


@pytest.mark.parametrize(
    "cls, other",
    [(RowOperators, batch_ops), (BatchOperators, row_ops)],
    ids=["row_ops-not-called-from-batch_ops", "batch_ops-not-called-from-row_ops"],
)
def test_neither_operator_file_names_the_others_functions(cls, other):
    source = inspect.getsource(other)
    named = [name for name in _methods(cls) if f"{name}(" in source]
    assert named == []
