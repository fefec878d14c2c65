//! Discrete-event simulation kernel for the near-stream computing suite.
//!
//! This crate provides the time base, deterministic event queue, bandwidth
//! resources and statistics utilities shared by every timing model in the
//! workspace (NoC, caches, DRAM, cores and stream engines).
//!
//! # Examples
//!
//! ```
//! use nsc_sim::{Cycle, EventQueue};
//!
//! let mut q = EventQueue::new();
//! q.push(Cycle(10), "late");
//! q.push(Cycle(5), "early");
//! assert_eq!(q.pop(), Some((Cycle(5), "early")));
//! assert_eq!(q.pop(), Some((Cycle(10), "late")));
//! ```

pub mod cache;
pub mod error;
pub mod fault;
pub mod json;
pub mod log;
pub mod metrics;
pub mod pool;
pub mod queue;
pub mod resource;
pub mod rng;
pub mod span;
pub mod stats;
pub mod time;
pub mod timeline;
pub mod trace;

pub use error::SimError;
pub use queue::EventQueue;
pub use resource::Resource;
pub use stats::{Counter, Histogram, StatsTable, Summary};
pub use time::Cycle;
