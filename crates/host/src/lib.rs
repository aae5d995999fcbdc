//! The Nectar host: a Sun 4-class workstation attached to its CAB over
//! a VME backplane.
//!
//! §3.2 and §3.5 of the paper describe the host side of the system:
//! processes mmap CAB memory through the CAB device driver, operate on
//! mailboxes and syncs directly over the bus (shared-memory mode) or
//! via signal-queue RPC, wait on host condition variables by polling
//! or by blocking in the driver, and use the Nectarine library for a
//! uniform interface.
//!
//! * [`costs`] — VME (1 µs/word) and host CPU timing constants.
//! * [`process`] — the [`process::HostProcess`] trait and the
//!   [`process::HostCx`] execution context with all host-side mailbox,
//!   sync and condition-variable operations.
//! * [`host`] — the host machine: scheduler + CAB device driver.

pub mod costs;
pub mod host;
pub mod process;

pub use costs::HostCostModel;
pub use host::{Host, HostStats};
pub use process::{HostCx, HostEffect, HostProcess, HostStep, ProcId};
