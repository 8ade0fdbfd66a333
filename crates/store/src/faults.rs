//! Deterministic failpoints for crash- and fault-injection tests.
//!
//! A *failpoint site* is a named place in production code where a test
//! may inject a failure: [`check_fault`] returns an injected
//! `io::Error` (and [`should_fail`] returns `true`) when the site is
//! armed. The sites live in durability- and serving-critical paths —
//! WAL append/fsync, snapshot rename, socket writes, lock acquisition —
//! so tests can prove that every failure there refunds reservations,
//! keeps `spent == budget − remaining`, and leaves the WAL replayable.
//!
//! The whole facility is std-only and gated behind the `failpoints`
//! cargo feature. Without the feature the query functions are
//! `#[inline(always)]` constants (`false` / `Ok`) that compile to
//! nothing, so release builds carry no registry, no locking, and no way
//! to arm a site. With the feature on but nothing armed, every site is
//! likewise inert — the feature is enabled through dev-dependencies so
//! `cargo test` can drive it while `cargo build --release` cannot.
//!
//! Two arming modes, both deterministic:
//!
//! * **One-shot** ([`arm_failpoint`] / [`arm_failpoint_nth`]): fire on
//!   an exact hit ordinal of one site — the workhorse of the
//!   "fail at every site × every operation" chaos sweep.
//! * **Seeded schedule** ([`seed_failpoints`]): a splitmix64 stream
//!   decides at every hit of every site whether to fire (one-in-`N`),
//!   so a whole serving script sees a reproducible pseudo-random fault
//!   pattern from a single seed.
//!
//! The registry is per thread: arming, hit counts and firing all belong
//! to the thread that armed them, so tests running in parallel cannot
//! trip or count each other's sites. Every site is hit on the thread
//! that handles the request, which for an in-process server is the
//! caller's. Tests that arm anything still run inside
//! [`with_exclusive`], which clears the registry on entry and exit so a
//! panicking test cannot leak armed sites into the next test its thread
//! runs.

use std::io;

/// True when `site` is armed to fail at this hit. Consumes one-shot
/// triggers and advances the seeded schedule; always `false` without the
/// `failpoints` feature.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn should_fail(_site: &str) -> bool {
    false
}

/// Injected-failure check: `Err(io::Error)` when `site` fires, `Ok(())`
/// otherwise; always `Ok` without the `failpoints` feature.
#[cfg(not(feature = "failpoints"))]
#[inline(always)]
pub fn check_fault(_site: &str) -> io::Result<()> {
    Ok(())
}

/// True when `site` is armed to fail at this hit. Consumes one-shot
/// triggers and advances the seeded schedule.
#[cfg(feature = "failpoints")]
pub fn should_fail(site: &str) -> bool {
    registry::hit(site)
}

/// Injected-failure check: `Err(io::Error)` when `site` fires, `Ok(())`
/// otherwise.
#[cfg(feature = "failpoints")]
pub fn check_fault(site: &str) -> io::Result<()> {
    if should_fail(site) {
        Err(io::Error::other(format!("injected fault at `{site}`")))
    } else {
        Ok(())
    }
}

#[cfg(feature = "failpoints")]
pub use registry::{
    arm_failpoint, arm_failpoint_nth, clear_failpoints, fault_hits, seed_failpoints, with_exclusive,
};

#[cfg(feature = "failpoints")]
mod registry {
    use std::cell::RefCell;
    use std::sync::{Mutex, PoisonError};

    /// One-in-`one_in` seeded failure stream (splitmix64).
    struct Schedule {
        state: u64,
        one_in: u64,
    }

    struct Registry {
        /// Per-site hit counters since the last [`clear_failpoints`].
        hits: Vec<(String, u64)>,
        /// `(site, hit ordinal)` one-shot triggers (1-based, absolute
        /// since the last clear); consumed when they fire.
        oneshots: Vec<(String, u64)>,
        schedule: Option<Schedule>,
    }

    thread_local! {
        static REGISTRY: RefCell<Registry> = const {
            RefCell::new(Registry {
                hits: Vec::new(),
                oneshots: Vec::new(),
                schedule: None,
            })
        };
    }

    /// Runs `f` on the calling thread's registry.
    fn with_registry<R>(f: impl FnOnce(&mut Registry) -> R) -> R {
        REGISTRY.with(|reg| f(&mut reg.borrow_mut()))
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Records a hit of `site` and decides whether it fires.
    pub(super) fn hit(site: &str) -> bool {
        with_registry(|reg| hit_in(reg, site))
    }

    fn hit_in(reg: &mut Registry, site: &str) -> bool {
        let n = match reg.hits.iter_mut().find(|(s, _)| s == site) {
            Some((_, n)) => {
                *n += 1;
                *n
            }
            None => {
                reg.hits.push((site.to_string(), 1));
                1
            }
        };
        if let Some(at) = reg
            .oneshots
            .iter()
            .position(|(s, nth)| s == site && *nth == n)
        {
            reg.oneshots.remove(at);
            return true;
        }
        if let Some(sched) = reg.schedule.as_mut() {
            return splitmix64(&mut sched.state).is_multiple_of(sched.one_in.max(1));
        }
        false
    }

    /// Arms `site` to fire on its very next hit.
    pub fn arm_failpoint(site: &str) {
        with_registry(|reg| {
            let n = reg
                .hits
                .iter()
                .find(|(s, _)| s == site)
                .map_or(0, |(_, n)| *n);
            reg.oneshots.push((site.to_string(), n + 1));
        })
    }

    /// Arms `site` to fire on its `nth` hit (1-based, counted since the
    /// last [`clear_failpoints`]).
    pub fn arm_failpoint_nth(site: &str, nth: u64) {
        with_registry(|reg| reg.oneshots.push((site.to_string(), nth)));
    }

    /// Arms every site with a deterministic one-in-`one_in` failure
    /// stream derived from `seed`. The same seed over the same hit
    /// sequence reproduces the same fault pattern exactly.
    pub fn seed_failpoints(seed: u64, one_in: u64) {
        with_registry(|reg| {
            reg.schedule = Some(Schedule {
                state: seed,
                one_in,
            })
        });
    }

    /// Disarms everything and resets every hit counter.
    pub fn clear_failpoints() {
        with_registry(|reg| {
            reg.hits.clear();
            reg.oneshots.clear();
            reg.schedule = None;
        });
    }

    /// Hits of `site` since the last [`clear_failpoints`].
    pub fn fault_hits(site: &str) -> u64 {
        with_registry(|reg| {
            reg.hits
                .iter()
                .find(|(s, _)| s == site)
                .map_or(0, |(_, n)| *n)
        })
    }

    /// Runs `f` holding the global failpoint-test lock, with the calling
    /// thread's registry cleared on entry and exit. Every test that arms
    /// a failpoint runs inside this, so an armed site never outlives its
    /// test.
    pub fn with_exclusive<R>(f: impl FnOnce() -> R) -> R {
        static EXCLUSIVE: Mutex<()> = Mutex::new(());
        let _guard = EXCLUSIVE.lock().unwrap_or_else(PoisonError::into_inner);
        clear_failpoints();
        struct ClearOnExit;
        impl Drop for ClearOnExit {
            fn drop(&mut self) {
                clear_failpoints();
            }
        }
        let _reset = ClearOnExit;
        f()
    }
}

#[cfg(all(test, feature = "failpoints"))]
mod tests {
    use super::*;

    #[test]
    fn unarmed_sites_never_fire() {
        with_exclusive(|| {
            for _ in 0..100 {
                assert!(!should_fail("quiet.site"));
            }
            assert!(check_fault("quiet.site").is_ok());
            assert_eq!(fault_hits("quiet.site"), 101);
        });
    }

    #[test]
    fn one_shot_fires_exactly_once_on_the_next_hit() {
        with_exclusive(|| {
            assert!(!should_fail("wal.x"));
            arm_failpoint("wal.x");
            assert!(!should_fail("other.site"), "other sites unaffected");
            assert!(should_fail("wal.x"));
            assert!(!should_fail("wal.x"), "one-shot is consumed");
        });
    }

    #[test]
    fn nth_hit_trigger_counts_from_clear() {
        with_exclusive(|| {
            arm_failpoint_nth("s", 3);
            assert!(!should_fail("s"));
            assert!(!should_fail("s"));
            assert!(should_fail("s"));
            assert!(!should_fail("s"));
            let e = {
                arm_failpoint("s");
                check_fault("s").unwrap_err()
            };
            assert!(e.to_string().contains("`s`"), "{e}");
        });
    }

    #[test]
    fn seeded_schedule_is_deterministic() {
        let run = |seed: u64| -> Vec<bool> {
            with_exclusive(|| {
                seed_failpoints(seed, 3);
                (0..64).map(|_| should_fail("any.site")).collect()
            })
        };
        let a = run(42);
        assert_eq!(a, run(42), "same seed, same pattern");
        assert!(a.iter().any(|&f| f), "one-in-3 over 64 hits must fire");
        assert!(!a.iter().all(|&f| f), "…but not always");
        assert_ne!(a, run(7), "different seed, different pattern");
    }

    #[test]
    fn with_exclusive_clears_on_entry_and_exit() {
        with_exclusive(|| {
            arm_failpoint("leaky");
        });
        with_exclusive(|| {
            assert!(!should_fail("leaky"), "armed site must not leak");
            assert_eq!(fault_hits("leaky"), 1, "hit counters reset too");
        });
    }
}
