//! The CAB cost model: how long things take on a 16.5 MHz SPARC.
//!
//! Every timing constant in the simulation lives here, in one struct,
//! so that calibration (DESIGN.md §6) is a single-file affair. Values
//! marked *paper* are published numbers; the rest are calibrated so
//! that the Table 1 / Figure 6/7/8 harnesses land on the paper's
//! anchors (see EXPERIMENTS.md for the calibration record).

use nectar_sim::SimDuration;

/// Timing constants for the CAB processor and its runtime system.
#[derive(Clone, Copy, Debug)]
pub struct CostModel {
    /// Thread context switch — *paper*: "Context switch time is
    /// determined by the cost of saving and restoring the SPARC
    /// register windows; 20 µsec is typical".
    pub ctx_switch: SimDuration,
    /// Interrupt entry + exit overhead (save state, dispatch, rti).
    pub interrupt_overhead: SimDuration,
    /// Datalink-layer header processing per packet — *paper* (Fig. 6):
    /// 8 µs "datalink" stage.
    pub datalink: SimDuration,
    /// Starting a DMA transfer (program the controller).
    pub dma_setup: SimDuration,
    /// Mailbox Begin_Put: allocate + reserve. Figure 6 shows 18 µs for
    /// the host-side begin_put (which includes VME words); the CAB-side
    /// cost is the CPU part.
    pub mbox_begin_put: SimDuration,
    /// Mailbox End_Put: queue insert + reader notification.
    pub mbox_end_put: SimDuration,
    /// Mailbox Begin_Get.
    pub mbox_begin_get: SimDuration,
    /// Mailbox End_Get: release storage.
    pub mbox_end_get: SimDuration,
    /// Sync Write / Read fast path.
    pub sync_op: SimDuration,
    /// Fixed per-packet transport processing, datagram protocol (thin).
    pub datagram_proc: SimDuration,
    /// Fixed per-packet transport processing, RMP.
    pub rmp_proc: SimDuration,
    /// Fixed per-packet transport processing, request-response.
    pub reqresp_proc: SimDuration,
    /// Fixed per-packet IP input/output processing (header fields,
    /// route lookup; excludes the header checksum).
    pub ip_proc: SimDuration,
    /// IP header checksum (20 bytes through the software loop).
    pub ip_header_checksum: SimDuration,
    /// Fixed per-segment TCP processing (standard input processing,
    /// excluding the software data checksum).
    pub tcp_proc: SimDuration,
    /// Fixed per-datagram UDP processing.
    pub udp_proc: SimDuration,
    /// Software Internet checksum, per byte — the Figure 7 separator
    /// between TCP and "TCP w/o checksum". ~4 cycles/byte at 16.5 MHz.
    pub checksum_per_byte: SimDuration,
    /// Scheduling work to wake a thread (run-queue insert).
    pub thread_wake: SimDuration,
    /// Dispatch cost of a mailbox reader upcall (§3.3: converts a
    /// cross-thread call into a local one — this replaces ctx_switch).
    pub upcall_dispatch: SimDuration,
    /// Processing one CAB signal-queue entry from the host.
    pub signal_dequeue: SimDuration,
}

impl Default for CostModel {
    fn default() -> Self {
        CostModel {
            ctx_switch: SimDuration::from_micros(20), // paper
            interrupt_overhead: SimDuration::from_micros(8),
            datalink: SimDuration::from_micros(8), // paper (Fig. 6)
            dma_setup: SimDuration::from_micros(2),
            mbox_begin_put: SimDuration::from_micros(6),
            mbox_end_put: SimDuration::from_micros(5),
            mbox_begin_get: SimDuration::from_micros(4),
            mbox_end_get: SimDuration::from_micros(5),
            sync_op: SimDuration::from_micros(3),
            datagram_proc: SimDuration::from_micros(8),
            rmp_proc: SimDuration::from_micros(10),
            reqresp_proc: SimDuration::from_micros(12),
            ip_proc: SimDuration::from_micros(10),
            ip_header_checksum: SimDuration::from_micros(5),
            tcp_proc: SimDuration::from_micros(35),
            udp_proc: SimDuration::from_micros(25),
            // ~1.5 cycles/byte at 16.5 MHz for the unrolled BSD sum
            // loop (ldd + addxcc over doublewords) ≈ 90 ns/byte
            checksum_per_byte: SimDuration::from_nanos(90),
            thread_wake: SimDuration::from_micros(4),
            upcall_dispatch: SimDuration::from_micros(3),
            signal_dequeue: SimDuration::from_micros(6),
        }
    }
}

impl CostModel {
    /// Software checksum time over `n` bytes.
    pub fn checksum(&self, n: usize) -> SimDuration {
        self.checksum_per_byte * n as u64
    }
}

/// Link and board constants (hardware, not CPU).
#[derive(Clone, Copy, Debug)]
pub struct LinkModel {
    /// Fiber line rate — *paper*: 100 Mbit/s.
    pub fiber_bits_per_sec: u64,
    /// One-way propagation delay per fiber segment (tens of meters).
    pub fiber_propagation: SimDuration,
    /// Input/output FIFO capacity in bytes (temporary buffering between
    /// fiber and DMA).
    pub fifo_bytes: usize,
}

impl Default for LinkModel {
    fn default() -> Self {
        LinkModel {
            fiber_bits_per_sec: 100_000_000,
            fiber_propagation: SimDuration::from_nanos(300),
            fifo_bytes: 32 * 1024,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_pinned_values() {
        let c = CostModel::default();
        assert_eq!(c.ctx_switch, SimDuration::from_micros(20));
        assert_eq!(c.datalink, SimDuration::from_micros(8));
        let l = LinkModel::default();
        assert_eq!(l.fiber_bits_per_sec, 100_000_000);
    }

    #[test]
    fn checksum_scales_linearly() {
        let c = CostModel::default();
        assert_eq!(c.checksum(0), SimDuration::ZERO);
        let one = c.checksum(1000);
        let two = c.checksum(2000);
        assert_eq!(two.as_nanos(), one.as_nanos() * 2);
        // 8 KiB at ~90 ns/byte ≈ 740 us — the dominant term in Fig. 7's
        // TCP curve (comparable to the 655 us wire time of the packet)
        assert!(c.checksum(8192) > SimDuration::from_micros(700));
    }
}
