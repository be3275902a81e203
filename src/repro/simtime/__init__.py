"""Simulated time: the hardware cost model behind every reported second.

The engine executes queries for real on scaled-down data; *time* is
simulated. Operators report physical work — bytes read from disk, bytes
sent on the wire, tuples processed — to a :class:`CostAccumulator`, which
converts work into seconds using the constants in :class:`CostModel`.

Two kinds of cost exist:

* **Scaled costs** (per byte / per tuple) are multiplied by
  ``CostModel.scale`` so that a small in-memory dataset stands in for the
  paper's 160GB / 1.6TB TPC-H volumes. The benchmark harness chooses the
  scale as ``nominal_bytes_per_segment / actual_bytes_per_segment``.
* **Fixed costs** (query dispatch, container start-up, connection set-up)
  are *not* scaled: a 3 s YARN container launch takes 3 s regardless of
  data volume. Getting this split right is what lets the Stinger-vs-HAWQ
  gap widen on short queries exactly as in the paper.

The default constants model the paper's testbed (Section 8): 16 segment
hosts, 2x6-core 2.93 GHz Xeons, 48 GB RAM, 12x300 GB disks, one dual-port
10 GigE NIC per host, 6 HAWQ segments per host.

Query *wall* time is no longer folded per-slice here: the event-driven
simulator in :mod:`repro.simtime.scheduler` composes per-(slice, segment)
task durations into a critical path through the task DAG.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields


@dataclass
class CostModel:
    """Hardware and software cost constants, in seconds / bytes / tuples.

    Instances are mutable on purpose: the benchmark harness adjusts
    ``scale``, ``io_cached`` and interconnect parameters per experiment.
    """

    #: Multiplier applied to all per-byte / per-tuple costs (see module doc).
    scale: float = 1.0
    #: Number of *real* segments being modeled (the paper's cluster has
    #: 96); interconnect stream-concurrency effects use this rather than
    #: the (smaller) simulated segment count. 0 = use simulated count.
    modeled_segments: int = 0

    #: Effective sequential HDFS read bandwidth of one segment (its share
    #: of the host's 12 disks, after checksumming and framing overhead).
    disk_seq_bw: float = 130e6
    #: HDFS write path is replicated (pipeline of ``hdfs_replication``
    #: writes); effective write bandwidth divides by this.
    hdfs_replication: int = 3
    #: When True, table data fits in the page cache (the paper's 160 GB
    #: "CPU-bound" configuration) and data-file reads cost no disk time.
    io_cached: bool = False

    #: Network bandwidth share of one segment (10 GigE / 6 segments).
    net_bw: float = 90e6
    #: One-way network latency between hosts.
    net_latency: float = 100e-6

    #: Base CPU cost to push one tuple through one executor operator.
    cpu_tuple: float = 0.25e-6
    #: CPU cost to evaluate one expression/column access on one tuple.
    cpu_column: float = 0.07e-6
    #: CPU cost per byte to serialize/deserialize a tuple at a motion.
    cpu_net_byte: float = 1.5e-9
    #: CPU cost per uncompressed byte to deserialize storage-format data
    #: (row/vector decoding, framing, checksums). AO pays this for every
    #: column of every row; CO/Parquet only for projected columns.
    cpu_format_byte: float = 1.6e-9
    #: Parquet's PAX row groups decode vectors slightly faster than CO's
    #: per-column files (denser layout, fewer block headers)...
    parquet_cpu_factor: float = 0.55
    #: ...but reading a column subset from row groups amplifies IO
    #: (group headers/directories and chunk-granular reads).
    parquet_io_amplification: float = 1.35

    #: Per-query fixed cost on the master: parse, analyze, plan.
    query_setup: float = 0.08
    #: Fixed cost to dispatch a plan and start one gang of QEs.
    gang_setup: float = 0.03
    #: Extra per-segment dispatch cost avoided by direct dispatch.
    dispatch_per_segment: float = 0.002
    #: Round-trip for one catalog lookup RPC to the master (used by the
    #: metadata-dispatch ablation: without self-described plans every QE
    #: pays this per catalog object it touches).
    catalog_rpc: float = 0.004

    # --- TCP vs UDP interconnect (Section 4) -------------------------------
    #: Connection set-up cost per TCP stream (3-way handshake + buffers).
    tcp_conn_setup: float = 1.2e-3
    #: TCP throughput degradation under high stream concurrency on one
    #: host: effective bw = net_bw / (1 + tcp_concurrency_penalty * streams).
    tcp_concurrency_penalty: float = 0.004
    #: Hard cap of concurrent TCP streams per host (port exhaustion).
    tcp_max_streams_per_host: int = 60000
    #: UDP virtual connections multiplex one socket: tiny per-stream cost.
    udp_conn_setup: float = 5e-6
    #: UDP protocol overhead per payload byte (acks, headers, retransmits
    #: at the default loss rate).
    udp_byte_overhead: float = 0.05

    # --- MapReduce / YARN baseline (Section 8.1) ---------------------------
    #: JVM + AM start-up per MapReduce job.
    mr_job_setup: float = 8.0
    #: Container launch cost per task (JVM fork, no reuse).
    mr_container_setup: float = 5.0
    #: Scheduling delay per task wave.
    mr_wave_delay: float = 2.0
    #: HTTP shuffle bandwidth per reducer (slower than raw NIC share).
    mr_shuffle_bw: float = 4e6
    #: Per-tuple CPU cost in the MR engine: Hive 0.12's row-at-a-time
    #: SerDe + operator-tree interpreter.
    mr_cpu_tuple: float = 2.5e-6
    mr_cpu_column: float = 0.3e-6
    #: Memory available for a reducer's merge-sort before it goes
    #: multi-pass.
    mr_sort_mem: float = 0.5e9
    #: Effective per-container disk bandwidth for spills/merges when the
    #: data does not fit in cache: 9 concurrent containers thrash the
    #: node's 12 disks, so each sees about a third of sequential speed.
    mr_spill_bw: float = 35e6
    #: Nominal HDFS block size used to derive map-task counts.
    mr_block_size: float = 128e6
    #: Memory available to one reducer container, in nominal bytes; a
    #: reducer whose input exceeds this fails the job (paper: 3 queries
    #: failed with "Reducer out of memory" at 1.6 TB).
    mr_reducer_mem: float = 4.4e9

    def scaled(self, seconds: float) -> float:
        """Scale a data-proportional cost to nominal volume."""
        return seconds * self.scale

    def copy(self) -> "CostModel":
        """Return an independent copy of this model."""
        return CostModel(**{f.name: getattr(self, f.name) for f in fields(self)})


@dataclass
class CostAccumulator:
    """Accumulates simulated seconds of work for one execution context.

    One accumulator exists per (slice, segment) pair in the MPP engine and
    per task in the MapReduce baseline. Methods convert physical work into
    seconds; ``seconds`` is the running total.
    """

    model: CostModel
    seconds: float = 0.0
    #: Raw counters, useful for reporting and assertions in tests.
    disk_read_bytes: int = 0
    disk_write_bytes: int = 0
    net_bytes: int = 0
    tuples: int = 0

    def fixed(self, seconds: float) -> None:
        """Add an unscaled fixed cost (set-up, RPC, container launch)."""
        self.seconds += seconds

    def disk_read(self, nbytes: int, *, sequential: bool = True) -> None:
        """Charge a read of ``nbytes`` from local disk (or page cache)."""
        self.disk_read_bytes += nbytes
        if not self.model.io_cached:
            bw = self.model.disk_seq_bw if sequential else self.model.disk_seq_bw / 4
            self.seconds += self.model.scaled(nbytes / bw)

    def disk_write(self, nbytes: int, *, replicated: bool = False) -> None:
        """Charge a write of ``nbytes``; HDFS writes pay the replication
        pipeline, local spill files do not."""
        self.disk_write_bytes += nbytes
        factor = self.model.hdfs_replication if replicated else 1
        self.seconds += self.model.scaled(nbytes * factor / self.model.disk_seq_bw)

    def cpu_tuples(self, ntuples: int, ncolumns: int = 0, weight: float = 1.0) -> None:
        """Charge CPU for pushing ``ntuples`` through one operator that
        touches ``ncolumns`` columns per tuple."""
        self.tuples += ntuples
        per_tuple = self.model.cpu_tuple * weight + self.model.cpu_column * ncolumns
        self.seconds += self.model.scaled(ntuples * per_tuple)

    def cpu_bytes(self, nbytes: int, per_byte: float) -> None:
        """Charge CPU proportional to a byte volume (codecs, framing)."""
        self.seconds += self.model.scaled(nbytes * per_byte)

    def network(
        self,
        nbytes: int,
        bandwidth: "float | None" = None,
        messages: int = 1,
    ) -> None:
        """Charge wire time for sending ``nbytes`` as ``messages`` charged
        sends. Latency is paid **per message**, not per fragment: a layer
        that streams one logical payload in many fragments must batch them
        into one charged send (``messages=1``) — or pass ``messages=0``
        for a continuation whose latency is accounted elsewhere (the
        scheduler charges motion-edge latency on the task DAG edge)."""
        self.net_bytes += nbytes
        bw = bandwidth if bandwidth is not None else self.model.net_bw
        self.seconds += (
            self.model.scaled(nbytes / bw) + self.model.net_latency * messages
        )


@dataclass
class QueryCost:
    """Final simulated cost of one query, as reported to clients."""

    seconds: float
    disk_read_bytes: int = 0
    disk_write_bytes: int = 0
    net_bytes: int = 0
    tuples: int = 0

    @classmethod
    def from_accumulator(cls, acc: CostAccumulator) -> "QueryCost":
        return cls(
            seconds=acc.seconds,
            disk_read_bytes=acc.disk_read_bytes,
            disk_write_bytes=acc.disk_write_bytes,
            net_bytes=acc.net_bytes,
            tuples=acc.tuples,
        )

    def add(self, other) -> None:
        """Add ``other``'s seconds and counters (a ``QueryCost``, a
        :class:`CostAccumulator` or a task's report) to this cost."""
        self.seconds += other.seconds
        self.disk_read_bytes += other.disk_read_bytes
        self.disk_write_bytes += other.disk_write_bytes
        self.net_bytes += other.net_bytes
        self.tuples += other.tuples
