//! Deterministic, seedable fault injection for crash-consistency tests.
//!
//! The mutation and execution paths are sprinkled with named *fault
//! sites* (`fault::check("delta-commit")`, …). Without the
//! `fault-injection` cargo feature every check compiles to an inlined
//! `Ok(())` — zero branches, zero atomics, zero cost (the test
//! `fault_sites_cost_under_one_percent_of_a_delta_when_compiled_out` in
//! `tests/fault_agree.rs` holds that claim to a measurement). With the
//! feature on, a process-global [`FaultPlan`]
//! decides per site and per occurrence whether the site fires, either as
//! a structured [`DataError::Injected`] or as a panic (exercising the
//! `catch_unwind` containment of the morsel workers and the maintenance
//! wrapper).
//!
//! Plans are **deterministic**: a rule either pins an exact occurrence
//! (`fail_at(site, nth)`) or draws from a splitmix64 stream keyed by
//! `(seed, site, occurrence)` (`fail_with_probability`), so a failing
//! chaos run reproduces from its seed alone — no ambient randomness.
//!
//! The plan is global, not thread-local, because the interesting sites
//! run on worker threads the test did not spawn. Tests that install a
//! plan must serialize among themselves and [`clear`] when done; the
//! chaos suite (`tests/fault_agree.rs`) holds a shared mutex for this.
//!
//! Live sites, by layer: `delta-validate` / `delta-commit` (this crate's
//! delta application), `csv-ingest` (CSV import), `cache-admit` /
//! `cache-evict` (sort cache), `morsel-exec` (parallel workers),
//! `maintain-view` / `maintain-publish` (incremental maintenance in
//! `fdb-core`), and the serving front door's `queue-admit` /
//! `writer-drain` (admission and batch drain).

#[cfg(feature = "fault-injection")]
use crate::error::DataError;
use crate::Result;

/// How a firing site fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The site returns `Err(DataError::Injected(_))`.
    Error,
    /// The site panics (contained by the panic-safe execution paths).
    Panic,
}

/// When a rule fires: at one exact occurrence, or per-occurrence with a
/// deterministic pseudo-random draw.
#[derive(Debug, Clone, PartialEq)]
enum Trigger {
    /// Fire exactly at the `n`-th occurrence of the site (1-based).
    Nth(u64),
    /// Fire on each occurrence with this probability, drawn from the
    /// splitmix64 stream keyed by `(seed, site, occurrence)`.
    Probability(f64),
}

#[derive(Debug, Clone, PartialEq)]
struct Rule {
    site: String,
    kind: FaultKind,
    trigger: Trigger,
}

/// A deterministic schedule of injected failures, keyed by site name.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    rules: Vec<Rule>,
}

impl FaultPlan {
    /// An empty plan (no site ever fires) with the given seed for the
    /// probabilistic rules.
    pub fn new(seed: u64) -> Self {
        Self { seed, rules: Vec::new() }
    }

    /// Errors the `nth` occurrence (1-based) of `site`.
    pub fn fail_at(self, site: impl Into<String>, nth: u64) -> Self {
        self.rule(site, FaultKind::Error, Trigger::Nth(nth.max(1)))
    }

    /// Panics at the `nth` occurrence (1-based) of `site`.
    pub fn panic_at(self, site: impl Into<String>, nth: u64) -> Self {
        self.rule(site, FaultKind::Panic, Trigger::Nth(nth.max(1)))
    }

    /// Errors each occurrence of `site` with probability `p` (clamped to
    /// `[0, 1]`), deterministically in `(seed, site, occurrence)`.
    pub fn fail_with_probability(self, site: impl Into<String>, p: f64) -> Self {
        self.rule(site, FaultKind::Error, Trigger::Probability(p.clamp(0.0, 1.0)))
    }

    /// Panics each occurrence of `site` with probability `p`.
    pub fn panic_with_probability(self, site: impl Into<String>, p: f64) -> Self {
        self.rule(site, FaultKind::Panic, Trigger::Probability(p.clamp(0.0, 1.0)))
    }

    /// True if the plan has no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    fn rule(mut self, site: impl Into<String>, kind: FaultKind, trigger: Trigger) -> Self {
        self.rules.push(Rule { site: site.into(), kind, trigger });
        self
    }

    /// The fault the `occ`-th occurrence (1-based) of `site` should
    /// raise, if any. First matching rule wins.
    #[cfg_attr(not(any(test, feature = "fault-injection")), allow(dead_code))]
    fn decide(&self, site: &str, occ: u64) -> Option<FaultKind> {
        for r in self.rules.iter().filter(|r| r.site == site) {
            let fire = match r.trigger {
                Trigger::Nth(n) => occ == n,
                Trigger::Probability(p) => {
                    let h = splitmix64(
                        self.seed ^ site_hash(site) ^ occ.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    // 53 uniform mantissa bits → a draw in [0, 1).
                    ((h >> 11) as f64 / (1u64 << 53) as f64) < p
                }
            };
            if fire {
                return Some(r.kind);
            }
        }
        None
    }
}

/// The splitmix64 mixer — tiny, seedable, and dependency-free.
#[cfg_attr(not(any(test, feature = "fault-injection")), allow(dead_code))]
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// FNV-1a over the site name: stable across runs (unlike `DefaultHasher`).
#[cfg_attr(not(any(test, feature = "fault-injection")), allow(dead_code))]
fn site_hash(site: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in site.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

#[cfg(feature = "fault-injection")]
mod active {
    use super::{FaultKind, FaultPlan};
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Mutex;

    struct State {
        plan: FaultPlan,
        /// Occurrences seen per site since `install`.
        counts: HashMap<String, u64>,
        /// Faults raised per site since `install`.
        hits: HashMap<String, u64>,
    }

    static STATE: Mutex<Option<State>> = Mutex::new(None);
    static MUTED: AtomicBool = AtomicBool::new(false);

    fn lock() -> std::sync::MutexGuard<'static, Option<State>> {
        STATE.lock().unwrap_or_else(|p| p.into_inner())
    }

    pub fn install(plan: FaultPlan) {
        *lock() = Some(State { plan, counts: HashMap::new(), hits: HashMap::new() });
        MUTED.store(false, Ordering::Relaxed);
    }

    pub fn clear() {
        *lock() = None;
        MUTED.store(false, Ordering::Relaxed);
    }

    pub fn mute(m: bool) {
        MUTED.store(m, Ordering::Relaxed);
    }

    pub fn hit_count(site: &str) -> u64 {
        lock().as_ref().and_then(|s| s.hits.get(site).copied()).unwrap_or(0)
    }

    pub fn total_hits() -> u64 {
        lock().as_ref().map(|s| s.hits.values().sum()).unwrap_or(0)
    }

    pub fn evaluate(site: &str) -> Option<FaultKind> {
        if MUTED.load(Ordering::Relaxed) {
            return None;
        }
        let mut guard = lock();
        let st = guard.as_mut()?;
        let occ = {
            let c = st.counts.entry(site.to_string()).or_insert(0);
            *c += 1;
            *c
        };
        let kind = st.plan.decide(site, occ)?;
        *st.hits.entry(site.to_string()).or_insert(0) += 1;
        Some(kind)
    }
}

// --- Hot-path checks -------------------------------------------------------
//
// Without the feature these are inlined constants; the call sites carry no
// branch on the plan, no lock, no atomic.

/// True when the crate was compiled with the `fault-injection` feature —
/// i.e. the named sites below are live rather than inlined-out no-ops.
/// The overhead test bounds the site cost only when this is false.
pub const fn injection_enabled() -> bool {
    cfg!(feature = "fault-injection")
}

/// Raises the site's scheduled fault: `Err` for [`FaultKind::Error`],
/// `panic!` for [`FaultKind::Panic`]. Use only at sites whose callers
/// contain unwinding (morsel workers, the maintenance wrapper).
#[cfg(feature = "fault-injection")]
pub fn check(site: &'static str) -> Result<()> {
    match active::evaluate(site) {
        None => Ok(()),
        Some(FaultKind::Error) => Err(DataError::Injected(site.to_string())),
        Some(FaultKind::Panic) => panic!("injected fault at `{site}`"),
    }
}

/// See the feature-gated [`check`]; compiled out to `Ok(())`.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub fn check(_site: &'static str) -> Result<()> {
    Ok(())
}

/// Like [`check`] but demotes [`FaultKind::Panic`] to `Err` — for sites
/// where unwinding cannot be rolled back (mid-commit mutation of a
/// relation, CSV ingest loops).
#[cfg(feature = "fault-injection")]
pub fn check_err(site: &'static str) -> Result<()> {
    match active::evaluate(site) {
        None => Ok(()),
        Some(_) => Err(DataError::Injected(site.to_string())),
    }
}

/// See the feature-gated [`check_err`]; compiled out to `Ok(())`.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub fn check_err(_site: &'static str) -> Result<()> {
    Ok(())
}

/// True when the site fires, for infallible degradation points (a cache
/// admission that silently fails, a forced eviction) where neither `Err`
/// nor panic can propagate.
#[cfg(feature = "fault-injection")]
pub fn trip(site: &'static str) -> bool {
    active::evaluate(site).is_some()
}

/// See the feature-gated [`trip`]; compiled out to `false`.
#[cfg(not(feature = "fault-injection"))]
#[inline(always)]
pub fn trip(_site: &'static str) -> bool {
    false
}

// --- Plan management (no-ops without the feature) --------------------------

/// Installs `plan` as the process-global fault schedule, resetting all
/// occurrence counters and hit counts.
pub fn install(plan: FaultPlan) {
    #[cfg(feature = "fault-injection")]
    active::install(plan);
    #[cfg(not(feature = "fault-injection"))]
    let _ = plan;
}

/// Removes any installed plan; every site stops firing.
pub fn clear() {
    #[cfg(feature = "fault-injection")]
    active::clear();
}

/// Temporarily suppresses all sites without touching the plan or its
/// counters — verification code (cold recomputes, shadow applies) runs
/// under `mute(true)` so it neither fires nor consumes occurrences.
pub fn mute(m: bool) {
    #[cfg(feature = "fault-injection")]
    active::mute(m);
    #[cfg(not(feature = "fault-injection"))]
    let _ = m;
}

/// Faults raised at `site` since the last [`install`] (0 without the
/// feature or a plan).
pub fn hit_count(site: &str) -> u64 {
    #[cfg(feature = "fault-injection")]
    {
        active::hit_count(site)
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        let _ = site;
        0
    }
}

/// Faults raised across all sites since the last [`install`].
pub fn total_hits() -> u64 {
    #[cfg(feature = "fault-injection")]
    {
        active::total_hits()
    }
    #[cfg(not(feature = "fault-injection"))]
    {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_in_seed_site_occurrence() {
        let p = FaultPlan::new(42).fail_with_probability("s", 0.5);
        let a: Vec<bool> = (1..=64).map(|o| p.decide("s", o).is_some()).collect();
        let b: Vec<bool> = (1..=64).map(|o| p.decide("s", o).is_some()).collect();
        assert_eq!(a, b, "same plan, same draws");
        assert!(a.iter().any(|&f| f) && !a.iter().all(|&f| f), "p=0.5 fires sometimes");
        let q = FaultPlan::new(43).fail_with_probability("s", 0.5);
        let c: Vec<bool> = (1..=64).map(|o| q.decide("s", o).is_some()).collect();
        assert_ne!(a, c, "different seed, different draws");
        // Unknown sites never fire; nth rules pin one occurrence.
        assert!(p.decide("other", 1).is_none());
        let n = FaultPlan::new(0).panic_at("s", 3);
        assert_eq!(n.decide("s", 3), Some(FaultKind::Panic));
        assert!(n.decide("s", 2).is_none() && n.decide("s", 4).is_none());
        // Probability extremes.
        let always = FaultPlan::new(0).fail_with_probability("s", 1.0);
        assert!((1..=16).all(|o| always.decide("s", o) == Some(FaultKind::Error)));
        let never = FaultPlan::new(0).fail_with_probability("s", 0.0);
        assert!((1..=16).all(|o| never.decide("s", o).is_none()));
    }

    #[cfg(feature = "fault-injection")]
    #[test]
    fn installed_plans_fire_count_and_mute() {
        // Global state: this test and the rest of the feature-gated suite
        // never run in the same binary as other installers (unit tests of
        // other crates are separate processes), so a plain install is safe.
        install(FaultPlan::new(7).fail_at("unit-site", 2));
        assert!(check("unit-site").is_ok(), "first occurrence passes");
        let err = check("unit-site").unwrap_err();
        assert!(matches!(err, DataError::Injected(_)));
        assert_eq!(hit_count("unit-site"), 1);
        assert_eq!(total_hits(), 1);
        assert!(check("unit-site").is_ok(), "third occurrence passes");
        // Muted checks neither fire nor consume occurrences.
        install(FaultPlan::new(7).fail_at("unit-site", 1));
        mute(true);
        assert!(check("unit-site").is_ok());
        mute(false);
        assert!(check("unit-site").is_err(), "occurrence 1 still pending after mute");
        // `check_err` demotes panics; `trip` reports without raising.
        install(FaultPlan::new(7).panic_at("unit-site", 1).panic_at("trip-site", 1));
        assert!(check_err("unit-site").is_err(), "panic demoted to Err");
        assert!(trip("trip-site"));
        assert!(!trip("trip-site"), "occurrence 2 has no rule");
        clear();
        assert!(check("unit-site").is_ok());
        assert_eq!(total_hits(), 0);
    }

    #[cfg(not(feature = "fault-injection"))]
    #[test]
    fn compiled_out_checks_are_inert() {
        install(FaultPlan::new(1).fail_with_probability("s", 1.0));
        assert!(check("s").is_ok());
        assert!(check_err("s").is_ok());
        assert!(!trip("s"));
        assert_eq!(total_hits(), 0);
        clear();
    }
}
