//! The eight workloads. Each module builds its inputs from the seed, sets
//! up the system under test, and implements [`Workload`].

use crate::harness::{Scale, Workload};

pub mod dbm_spj;
pub mod introspect;
pub mod serving;
pub mod store;
pub mod txn_switch;

/// Set up workload `name` from `seed`; `None` for an unknown name.
#[must_use]
pub fn setup(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    Some(match name {
        "megacrowd" => Box::new(serving::MegaCrowd::setup(seed, scale)),
        "flashcrowd_armed" => Box::new(serving::FlashCrowdArmed::setup(seed, scale)),
        "store_thrash" => Box::new(store::StoreMix::setup(seed, scale, store::THRASH_FRAMES)),
        "store_resident" => Box::new(store::StoreMix::setup(seed, scale, store::RESIDENT_FRAMES)),
        "store_recover" => Box::new(store::StoreRecover::setup(seed, scale)),
        "txn_switch" => Box::new(txn_switch::TxnSwitch::setup(seed, scale)),
        "dbm_spj" => Box::new(dbm_spj::DbmSpj::setup(seed, scale)),
        "introspect" => Box::new(introspect::Introspect::setup(seed, scale)),
        _ => return None,
    })
}

/// Fingerprint of the inputs workload `name` generates from `seed` — what
/// the determinism test compares across seeds.
#[must_use]
pub fn input_digest(name: &str, seed: u64, scale: Scale) -> Option<u64> {
    Some(match name {
        "megacrowd" => serving::mega_input_digest(seed, scale),
        "flashcrowd_armed" => serving::armed_input_digest(seed, scale),
        "store_thrash" | "store_resident" | "store_recover" => store::input_digest(seed, scale),
        "txn_switch" => txn_switch::input_digest(seed, scale),
        "dbm_spj" => dbm_spj::input_digest(seed, scale),
        "introspect" => introspect::input_digest(seed, scale),
        _ => return None,
    })
}
