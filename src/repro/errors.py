"""Exception hierarchy for the HAWQ reproduction.

All library errors derive from :class:`ReproError` so callers can catch one
base class. Subsystems raise the most specific subclass that applies.
"""


class ReproError(Exception):
    """Base class for every error raised by this library."""


class HdfsError(ReproError):
    """Base class for distributed-file-system errors."""


class FileNotFoundInHdfs(HdfsError):
    """The requested HDFS path does not exist."""


class FileAlreadyExists(HdfsError):
    """Attempt to create an HDFS path that already exists."""


class LeaseConflict(HdfsError):
    """A second writer/appender/truncater tried to acquire a held lease."""


class TruncateError(HdfsError):
    """Invalid truncate request (e.g. target length beyond file length)."""


class ReplicationError(HdfsError):
    """Not enough live DataNodes to satisfy the replication factor."""


class CatalogError(ReproError):
    """Base class for catalog errors."""


class DuplicateObject(CatalogError):
    """An object with this name already exists in the catalog."""


class UndefinedObject(CatalogError):
    """The named table/column/function does not exist."""


class CaqlSyntaxError(CatalogError):
    """CaQL statement could not be parsed or uses unsupported features."""


class SqlError(ReproError):
    """Base class for SQL front-end errors."""


class SqlSyntaxError(SqlError):
    """The SQL text could not be tokenized or parsed."""


class SemanticError(SqlError):
    """The SQL parsed but references undefined objects or mistypes them."""


class PlannerError(ReproError):
    """The planner could not produce a plan for a valid query."""


class ExecutorError(ReproError):
    """Runtime failure while executing a plan."""


class QueryCanceled(ReproError):
    """A statement was cancelled — by :meth:`Session.cancel`, or by the
    ``statement_timeout`` GUC expiring on the simulated clock.

    Deliberately *not* a :class:`ClusterError`: cancellation is a user
    decision, so the statement loop's bounded restart must never retry it
    and chaos recovery paths must never treat it as a segment fault.
    """


class TransactionError(ReproError):
    """Base class for transaction-management errors."""


class TransactionAborted(TransactionError):
    """The transaction was rolled back (explicitly or by failure)."""


class DeadlockDetected(TransactionError):
    """The lock manager chose this transaction as a deadlock victim."""


class LockTimeout(TransactionError):
    """A lock could not be acquired within the allowed wait."""


class ConcurrentUpdate(TransactionError):
    """A statement would delete or update a catalog row version that
    another transaction, not aborted, has already deleted or updated."""


class InterconnectError(ReproError):
    """Base class for interconnect failures."""


class ConnectionLimitExceeded(InterconnectError):
    """TCP interconnect ran out of ports / connection capacity."""


class ClusterError(ReproError):
    """Base class for cluster-runtime errors."""


class SegmentDown(ClusterError):
    """Operation routed to a segment that is marked down."""


class MasterUnavailable(ClusterError):
    """Neither primary nor standby master can serve the request."""


class QueryRetriesExhausted(ClusterError):
    """A query kept hitting dead segments after every bounded retry."""


class FaultInjected(ClusterError):
    """An error raised on purpose by the chaos fault-injection layer.

    Chaos failures subclass :class:`ClusterError` because that is the
    contract the engine gives clients: injected faults must surface as
    the same clean errors real faults would, never as wrong answers.
    """


class TransactionAbortedByFault(FaultInjected):
    """The fault plan aborted the running transaction at a WAL point."""


class PxfError(ReproError):
    """Base class for extension-framework errors."""


class StorageError(ReproError):
    """Base class for storage-format errors."""
