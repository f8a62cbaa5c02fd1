//! Regression fixture: an old shape of the chaos switch. `install`
//! publishes the plan fields with a release store of `ENABLED`, but the
//! hot-path check loaded it `Relaxed` — a reader observing `true` was not
//! guaranteed to see the plan fields the release store ordered. The bug was
//! found by hand; relaxed-ordering must fail this file mechanically.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);
static SEED: AtomicU64 = AtomicU64::new(0);

pub fn install(seed: u64) {
    SEED.store(seed, Ordering::Relaxed);
    ENABLED.store(true, Ordering::Release);
}

pub fn is_active() -> bool {
    ENABLED.load(Ordering::Relaxed)
}
