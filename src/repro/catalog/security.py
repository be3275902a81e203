"""Security catalog: roles, privileges, and resource queues.

Paper Section 2.2 lists both among the catalog's categories: "Security:
Users, roles and privileges" and "resource queues" under database
objects. Roles own sessions, privileges gate SELECT/INSERT/DDL per
relation, and resource queues bound how many concurrent queries (and
how much simulated memory) a role's queries may use — the admission
control MPP databases ship for multi-tenant clusters.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set

from repro.errors import CatalogError, ReproError


class PermissionDenied(ReproError):
    """The current role lacks a privilege on the target object."""


class QueueLimitExceeded(ReproError):
    """The statement's resource queue can never admit it: waiting for a
    slot would leave it unexecuted."""


#: Privileges understood by GRANT/REVOKE.
PRIVILEGES = ("select", "insert", "all")


@dataclass
class Role:
    """One login role."""

    name: str
    superuser: bool = False
    resource_queue: Optional[str] = None


@dataclass
class ResourceQueue:
    """Admission-control queue (active statement + memory bounds): the
    catalog row. Who is running or waiting is runtime state, kept by
    :class:`~repro.cluster.resqueue.ResourceQueueManager`."""

    name: str
    active_statements: int = 20
    memory_limit: float = 8e9  # simulated bytes per queue
    #: Admission priority under concurrency: higher drains first when
    #: slots free up (ties broken by arrival order).
    priority: int = 0


class SecurityManager:
    """Roles, grants, and resource queues for one engine."""

    def __init__(self) -> None:
        self.roles: Dict[str, Role] = {}
        self.queues: Dict[str, ResourceQueue] = {}
        # (role, relation) -> set of privileges
        self._grants: Dict[tuple, Set[str]] = {}
        self.create_queue("pg_default", active_statements=20)
        self.create_role("gpadmin", superuser=True)

    # ----------------------------------------------------------------- roles
    def create_role(
        self,
        name: str,
        superuser: bool = False,
        resource_queue: Optional[str] = None,
    ) -> Role:
        name = name.lower()
        if name in self.roles:
            raise CatalogError(f"role {name!r} already exists")
        queue = (resource_queue or "pg_default").lower()
        if queue not in self.queues:
            raise CatalogError(f"resource queue {queue!r} does not exist")
        role = Role(name=name, superuser=superuser, resource_queue=queue)
        self.roles[name] = role
        return role

    def drop_role(self, name: str) -> None:
        name = name.lower()
        if name not in self.roles:
            raise CatalogError(f"role {name!r} does not exist")
        if self.roles[name].superuser:
            raise CatalogError("cannot drop a superuser role")
        del self.roles[name]
        self._grants = {
            key: privs for key, privs in self._grants.items() if key[0] != name
        }

    def role(self, name: str) -> Role:
        role = self.roles.get(name.lower())
        if role is None:
            raise CatalogError(f"role {name!r} does not exist")
        return role

    def set_role_queue(self, role_name: str, queue_name: str) -> None:
        role = self.role(role_name)
        queue_name = queue_name.lower()
        if queue_name not in self.queues:
            raise CatalogError(f"resource queue {queue_name!r} does not exist")
        role.resource_queue = queue_name

    # ---------------------------------------------------------------- grants
    def grant(self, privilege: str, relation: str, role_name: str) -> None:
        privilege = privilege.lower()
        if privilege not in PRIVILEGES:
            raise CatalogError(f"unknown privilege {privilege!r}")
        self.role(role_name)  # must exist
        key = (role_name.lower(), relation.lower())
        self._grants.setdefault(key, set()).add(privilege)

    def revoke(self, privilege: str, relation: str, role_name: str) -> None:
        key = (role_name.lower(), relation.lower())
        privs = self._grants.get(key)
        if privs is not None:
            privs.discard(privilege.lower())
            if privilege.lower() == "all":
                privs.clear()

    def check(self, role_name: str, privilege: str, relation: str) -> None:
        """Raise :class:`PermissionDenied` unless allowed."""
        role = self.role(role_name)
        if role.superuser:
            return
        privs = self._grants.get((role.name, relation.lower()), set())
        if privilege.lower() in privs or "all" in privs:
            return
        raise PermissionDenied(
            f"role {role.name!r} lacks {privilege.upper()} on {relation!r}"
        )

    # ---------------------------------------------------------------- queues
    def create_queue(
        self,
        name: str,
        active_statements: int = 20,
        memory_limit: float = 8e9,
        priority: int = 0,
    ) -> ResourceQueue:
        name = name.lower()
        if name in self.queues:
            raise CatalogError(f"resource queue {name!r} already exists")
        queue = ResourceQueue(
            name=name,
            active_statements=active_statements,
            memory_limit=memory_limit,
            priority=priority,
        )
        self.queues[name] = queue
        return queue

    def drop_queue(self, name: str) -> None:
        name = name.lower()
        if name == "pg_default":
            raise CatalogError("cannot drop the default resource queue")
        if name not in self.queues:
            raise CatalogError(f"resource queue {name!r} does not exist")
        if any(r.resource_queue == name for r in self.roles.values()):
            raise CatalogError(f"resource queue {name!r} is in use by roles")
        del self.queues[name]

    def queue_for(self, role_name: str) -> ResourceQueue:
        role = self.role(role_name)
        return self.queues[role.resource_queue or "pg_default"]
