"""The simulated-clock canary: dispatch payload sizes, pinned.

``build_self_described_plan`` sizes the DISPATCH message with the
by-value wire encoding of ``planner/wire.py`` and charges its compressed
length: ``compressed_bytes`` becomes ``SliceTask.payload_bytes`` and so
charged seconds. Nothing else in tier-1 notices when that encoding
moves — answers stay right and only the simulated clock drifts — so 18
statements' ``(plan_bytes, compressed_bytes, cost.seconds)`` and the 22
TPC-H statements' ``(plan_bytes, compressed_bytes)`` are pinned in
``CONTRACT.json`` (sections ``statements/payload`` and
``statements/tpch_sizes``; the statements and their engine are
``repro.bench.statements``). What the pins guard is the *wire format*:
the tags and framing, which fields of which plan nodes travel, each
table's schema once. A change to any of those re-pins them,
deliberately, with the rest of the contract
(``PYTHONPATH=src python -m repro.bench.contract``, then review
``git diff CONTRACT.json``). They no longer guard who shares which
object — the encoding is identity-free, and ``tests/test_wire.py`` holds
it to that.

``PICKLED`` keeps the literals of the encoding this one replaced
(``pickle.dumps`` of ``(plan, metadata)`` with 2-3 private schema copies
per referenced table, pinned at the commit before PR 16): the re-pin may
only have made every message smaller and every statement cheaper, by
at most half a percent.
"""

import pytest

from repro.bench import contract
from repro.bench.statements import build_session, measure, statements, tpch_sizes

#: statement label -> (plan_bytes, compressed_bytes, cost.seconds) under
#: the pickle this encoding replaced.
PICKLED = {
    'short0': (2953, 1298, 0.14458900006495726),
    'short1': (3075, 1340, 0.14485469004273505),
    'short2': (3003, 1316, 0.14460629082905982),
    'short3': (3986, 1592, 0.14612238975093536),
    'short4': (4488, 1745, 0.20683207974145293),
    'short5': (4388, 1712, 0.20679552709690163),
    'short6': (3295, 1479, 0.15965370668034187),
    'short7': (3990, 1635, 0.14600528814017094),
    'short8': (3335, 1471, 0.1596676247131209),
    'short9': (2951, 1366, 0.14467354882222222),
    'tpch_q7': (14071, 4168, 0.40039225997200906),
    'tpch_q21': (13466, 3747, 0.40344746083162414),
    'partition_eliminated': (2448, 1177, 0.15935195749999997),
    'partition_all': (4360, 1399, 0.15939252588888891),
    'view': (3597, 1595, 0.15976019029145302),
    'view_self_join': (5044, 1955, 0.2553319905829061),
    'external': (1835, 997, 0.15933304269448045),
    'external_join': (3304, 1532, 0.206784011942201),
}


@pytest.fixture(scope="module")
def env():
    session, data = build_session()
    return session, statements(data)


def test_every_statement_is_pinned(env):
    _, sqls = env
    assert sorted(sqls) == sorted(contract.load()["statements"]["payload"]) == sorted(PICKLED)


@pytest.mark.parametrize("label", sorted(PICKLED))
def test_payload_size_and_charged_seconds(env, label):
    session, sqls = env
    contract.check(("statements", "payload", label), measure(session, sqls[label]))


@pytest.mark.parametrize("label", sorted(PICKLED))
def test_the_re_pin_only_made_statements_cheaper(label):
    _, new_compressed, new_seconds = contract.load()["statements"]["payload"][label]
    _, old_compressed, old_seconds = PICKLED[label]
    assert new_compressed <= old_compressed
    assert old_seconds * 0.995 <= new_seconds <= old_seconds


def test_repeating_a_statement_repeats_its_payload(env):
    """The second run of a statement (same view AST, same schema
    objects, their wire bytes already encoded) is neither cheaper nor
    dearer than the first."""
    session, sqls = env
    for label in ("short4", "view_self_join", "tpch_q21"):
        assert measure(session, sqls[label]) == measure(session, sqls[label])


def test_every_tpch_payload_size_is_pinned(env):
    session, _ = env
    contract.check(("statements", "tpch_sizes"), tpch_sizes(session))
