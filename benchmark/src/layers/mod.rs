//! Drivers for layers that are only ever called *inside* the program —
//! the supervisor's heartbeat round, the timer wheel, the buffer pool, the
//! lock manager, the ORB — and so cannot be wrapped in a span from the
//! workload loop. Each group exercises its layers directly through their
//! public functions on inputs of the calling workload's shape and fills
//! the matching catalogue rows.

pub mod dbm;
pub mod obs;
pub mod serving;
pub mod store;
pub mod txn;
