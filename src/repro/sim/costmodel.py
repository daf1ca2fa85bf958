"""Calibrated cost constants of the simulated testbed.

Every constant is fitted against a measurement the paper reports; the
derivations are spelled out below so the calibration is auditable.  The
benchmark harness never needs to match the paper's absolute seconds --
DESIGN.md explains why shape is the target -- but anchoring the constants to
the paper keeps even the absolute numbers in the right ballpark.

Calibration sources
-------------------
* ``heuristic_cell_time`` -- Table 1 serial runs: 296 s / 15k^2 = 1.32 us,
  3461 s / 50k^2 = 1.38 us, 175295 s / 400k^2 = 1.10 us.  We use 1.30 us
  (the mid-size runs; larger runs benefit from cache warmup effects we do
  not model).
* ``blocked_cell_time`` -- Table 4 serial runs: 57.18 s / 8k^2 = 0.89 us,
  2620.64 s / 50k^2 = 1.05 us.  We use 1.05 us (the blocked code keeps a
  leaner inner loop).
* ``preprocess_cell_time`` -- Fig. 19: one-processor 80k runs take ~1000 s
  => ~0.16 us/cell.  Section 5's kernel only counts threshold hits, with no
  candidate-alignment bookkeeping, hence the ~8x leaner cell.
* ``nw_cell_time`` -- phase 2 aligns ~253-byte subsequences with plain NW;
  same order as the blocked kernel.
* ``shared_bytes_per_cell`` -- the wave-front strategy keeps its two rows in
  shared memory, so each finished row releases diffs proportional to the
  row chunk.  Fitting Table 1's 8-processor overhead (total minus
  compute/8) at 50k (13.5 ms/row) and 400k (40.7 ms/row) to
  ``fixed + chunk * bytes/bandwidth`` gives ~7.8 bytes of diffed data per
  computed cell and ~9.6 ms of fixed per-row cost; we round to 8 bytes.
* ``cv_service_time``/``lock_service_time``/``page_fault_service`` -- the
  fixed ~9.6 ms per border exchange, split across the two jia_setcv/waitcv
  handshakes (manager round trips), the border-page fault, and per-message
  interrupt handling of the early-Pentium nodes.  Software-DSM papers of
  the era report multi-millisecond lock and fault costs on comparable
  hardware.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .disk import DiskParams
from .network import NetworkParams


@dataclass(frozen=True)
class CostModel:
    """All virtual-time constants of the simulated cluster."""

    # --- per-cell kernel costs (seconds) -------------------------------
    heuristic_cell_time: float = 1.30e-6
    blocked_cell_time: float = 1.05e-6
    preprocess_cell_time: float = 1.6e-7
    nw_cell_time: float = 1.0e-6
    # Database search: the bucket scan keeps the blocked kernel's lean inner
    # loop.
    search_cell_time: float = 1.05e-6

    # --- DSM protocol service costs (seconds, on top of wire time) -----
    # Tuned so the full wave-front handshake (waitcv + fault + ack on the
    # consumer, lock/unlock + setcv + ack-wait on the producer) costs the
    # ~9.6 ms/row that Table 1's 8-processor overhead implies.
    lock_service_time: float = 0.8e-3  # ACQ/GRANT round trip incl. manager work
    cv_service_time: float = 0.9e-3  # setcv or waitcv manager interaction
    page_fault_service: float = 0.9e-3  # getpage request/reply handling
    diff_service_time: float = 0.5e-3  # diff creation + twin bookkeeping
    barrier_service_time: float = 2.0e-3  # BARR/BARRGRANT handling per node

    # --- data layout ----------------------------------------------------
    page_bytes: int = 4096
    shared_bytes_per_cell: int = 8  # diffed bytes per computed cell (wave-front)
    border_bytes_per_cell: int = 8  # bytes exchanged per border cell (blocked)
    result_bytes_per_cell: int = 4  # stored column cells (pre_process)

    # --- process startup (Section 5.1: init under 10 s, term under 7 s) -
    node_startup_time: float = 0.9
    node_teardown_time: float = 0.4

    network: NetworkParams = field(default_factory=NetworkParams)
    disk: DiskParams = field(default_factory=DiskParams)

    # Derived helpers ----------------------------------------------------
    def message_time(self, nbytes: int) -> float:
        return self.network.latency + nbytes / self.network.bandwidth

    def lock_acquire_time(self, write_notice_pages: int = 1) -> float:
        """jia_lock: ACQ to the manager, GRANT back with write notices."""
        notices = 8 * max(0, write_notice_pages)
        return self.lock_service_time + self.message_time(64) + self.message_time(
            64 + notices
        )

    def lock_release_time(self, dirty_bytes: int) -> float:
        """jia_unlock: diffs to home nodes + acks + write notices to manager."""
        diffs = self.message_time(dirty_bytes) if dirty_bytes else 0.0
        acks = self.message_time(64) if dirty_bytes else 0.0
        notices = self.message_time(64)
        return self.diff_service_time + diffs + acks + notices

    def cv_signal_time(self) -> float:
        """jia_setcv: one manager interaction."""
        return self.cv_service_time + self.message_time(64)

    def cv_wait_time(self) -> float:
        """jia_waitcv protocol cost (excluding the blocked wait itself)."""
        return self.cv_service_time + self.message_time(64)

    def page_fault_time(self, nbytes: int | None = None) -> float:
        """Fetch a remote page copy on an access fault."""
        nbytes = self.page_bytes if nbytes is None else nbytes
        return self.page_fault_service + self.round_trip(64, nbytes)

    def round_trip(self, request_bytes: int, reply_bytes: int) -> float:
        return self.message_time(request_bytes) + self.message_time(reply_bytes)

    def barrier_time(self, dirty_bytes: int, n_nodes: int) -> float:
        """jia_barrier per-node cost: diffs + BARR + BARRGRANT."""
        diffs = self.message_time(dirty_bytes) if dirty_bytes else 0.0
        return (
            self.barrier_service_time
            + diffs
            + self.message_time(64)  # BARR with write notices
            + self.message_time(64 + 8 * n_nodes)  # BARRGRANT
        )


#: The default calibrated model used throughout benchmarks and examples.
DEFAULT_COST_MODEL = CostModel()
