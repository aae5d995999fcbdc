//! The Nectar CAB (Communication Accelerator Board) and its runtime
//! system — the primary subject of the paper.
//!
//! §2.2 describes the hardware: a 16.5 MHz SPARC, split program/data
//! memory (1 MiB of data SRAM), DMA engines between fiber, memory and
//! VME, hardware CRC, and 1 KiB-page protection domains. §3 describes
//! the runtime system built on it: a preemptive priority-scheduled
//! threads package derived from Mach C Threads, mailboxes with
//! two-phase zero-copy operations and reader upcalls, lightweight
//! syncs, and the host–CAB signaling machinery (host condition
//! variables and the two signal queues). §4 layers TCP/IP and the
//! Nectar-specific transports on top.
//!
//! Module map:
//!
//! * [`costs`] — every timing constant (the calibration surface).
//! * [`memory`] — data memory image, first-fit heap, protection pages.
//! * [`shared`] — the VME-visible state: mailboxes, syncs, host
//!   conditions, signal queues.
//! * [`runtime`] — threads package, scheduler, interrupts, upcalls,
//!   the [`runtime::Cx`] execution context.
//! * [`proto`] — protocol engines wired into threads/upcalls/interrupt
//!   handlers.
//! * [`reqs`] — request-message formats for the service mailboxes.
//! * [`board`] — the [`board::Cab`] itself and its event interface.

pub mod board;
pub mod costs;
pub mod memory;
pub mod proto;
pub mod reqs;
pub mod runtime;
pub mod shared;

pub use board::{BoardStats, Cab};
pub use costs::{CostModel, LinkModel};
pub use runtime::{CabEffect, CabThread, Cx, Step, Upcall, PRIO_APP, PRIO_SYSTEM};
pub use shared::{CabShared, HostOpMode, MboxId, MsgRef, SigEntry, WouldBlock};
