"""The shared-state registry: the module-level mutables queries share.

Lint rule **R7 cross-query-isolation** parses the :data:`SHARED_STATE`
literal out of this module's AST (of the tree being linted, so tests can
plant their own copies) and exempts writes to the state it names. R7
reads only module-level and class-level state; an instance attribute is
per-engine or per-loop and never needs an entry.

Keys are ``"<repo-relative-path>::<name>"``, where the name is a
module-level assignment in that file. Values are the human reason the
sharing is sound. An entry here is a *claim* that concurrent queries may
write the structure without breaking the serial≡concurrent bit-identity
contract; keep the reason concrete enough to audit.

The dict literal must stay statically evaluable (string keys/values
only): R7 reads it with ``ast.literal_eval`` without importing the
module.
"""

from __future__ import annotations

from typing import Dict

#: ``path::name`` → why cross-query writes are sound. Each is a pure
#: memo (the value is a function of the key alone, so the winner of any
#: write race stores the same value every run) or a table filled once,
#: while its module is imported, and only read after that.
SHARED_STATE: Dict[str, str] = {
    "src/repro/executor/expr.py::_LIKE_CACHE": (
        "pure memo (LIKE pattern -> compiled regex); the value depends "
        "only on the key, so concurrent fills are idempotent"
    ),
    "src/repro/catalog/schema.py::_PLACEMENTS": (
        "pure memo (segment count -> distribution key -> segment); each "
        "place is FNV-1a of the key's text, keys restricted to types whose "
        "== implies that text, and a full memo is cleared whole, so no "
        "placement depends on what it holds"
    ),
    "src/repro/catalog/schema.py::_DAYS": (
        "pure memo (stored day number -> immutable date); __missing__ "
        "stores date.fromordinal of the key only once it succeeded, and a "
        "full memo is cleared whole, so no decoded value depends on what "
        "it holds"
    ),
    "src/repro/planner/wire.py::_ENCODERS": (
        "pure memo (class -> wire encoder); __missing__ compiles the "
        "encoder from the class alone, so whichever statement meets a "
        "class first stores what any other would have"
    ),
    "src/repro/storage/compression.py::_CODECS": (
        "import-time table (codec name -> Codec); _register runs only at "
        "module import, before any statement, and nothing writes it after"
    ),
    "src/repro/txn/locks.py::_CONFLICTS": (
        "import-time table (conflicting lock-mode pairs); _conflict runs "
        "only at module import, before any statement, and nothing writes "
        "it after"
    ),
}
