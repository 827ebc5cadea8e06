//! Admission control: bounded concurrency plus per-tenant quotas.
//!
//! Two independent gates, checked in order:
//!
//! 1. **Per-tenant token bucket** (`429 Too Many Requests`): each
//!    distinct `X-Ariadne-Tenant` value gets a bucket of `quota_burst`
//!    tokens refilled at `quota_per_sec`; an admitted query spends one
//!    token (one shed by gate 2 spends none).
//!    This is fairness — one chatty investigator cannot starve the
//!    others — so it is checked first, before the shared capacity gate.
//! 2. **In-flight semaphore** (`503 Service Unavailable`): at most
//!    `max_in_flight` queries execute concurrently; everything beyond
//!    that is shed immediately rather than queued, because replay work
//!    parked behind a mutex would still pin its worker thread. The OS
//!    listen backlog under the HTTP core is the only buffering layer.
//!
//! Both rejections carry `Retry-After` seconds. The current admitted
//! count is exported as the `serve_queue_depth` gauge.

use std::collections::HashMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Cached handles for admission metrics.
mod obs_handles {
    use ariadne_obs::{static_counter, static_gauge};

    static_counter!(
        admitted,
        "serve_admitted_total",
        "queries admitted past quota and capacity gates",
        false
    );
    static_counter!(
        rejected_quota,
        "serve_rejected_quota_total",
        "queries rejected 429 by a per-tenant token bucket",
        false
    );
    static_counter!(
        rejected_busy,
        "serve_rejected_busy_total",
        "queries shed 503 by the in-flight capacity gate",
        false
    );

    static_gauge!(
        queue_depth,
        "serve_queue_depth",
        "queries currently admitted and executing",
        false
    );
}

/// Admission knobs. See the module docs for semantics.
#[derive(Clone, Copy, Debug)]
pub struct AdmissionConfig {
    /// Concurrent queries allowed past the capacity gate.
    pub max_in_flight: usize,
    /// Token-bucket capacity per tenant (burst size).
    pub quota_burst: f64,
    /// Token refill rate per tenant, tokens/second. `0.0` never
    /// refills — useful for tests and hard per-session budgets.
    pub quota_per_sec: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            max_in_flight: 8,
            quota_burst: 32.0,
            quota_per_sec: 8.0,
        }
    }
}

struct Bucket {
    tokens: f64,
    last_refill: Instant,
}

/// The admission gate. One per [`crate::QueryService`].
pub struct Admission {
    config: AdmissionConfig,
    in_flight: AtomicUsize,
    tenants: Mutex<HashMap<String, Bucket>>,
}

/// The outcome of [`Admission::admit`].
pub enum Admit<'a> {
    /// Run the query; drop the guard when done.
    Granted(InFlightGuard<'a>),
    /// Tenant out of tokens: `429` with this `Retry-After`.
    Throttled {
        /// Whole seconds until a token will be available.
        retry_after_secs: u64,
    },
    /// Capacity gate full: `503` with this `Retry-After`.
    Busy {
        /// Suggested back-off.
        retry_after_secs: u64,
    },
}

/// RAII slot in the in-flight gate; releases on drop.
pub struct InFlightGuard<'a> {
    gate: &'a Admission,
}

impl Drop for InFlightGuard<'_> {
    fn drop(&mut self) {
        self.gate.in_flight.fetch_sub(1, Ordering::AcqRel);
        obs_handles::queue_depth().add(-1);
    }
}

impl Admission {
    /// A gate with the given knobs.
    pub fn new(config: AdmissionConfig) -> Admission {
        Admission {
            config,
            in_flight: AtomicUsize::new(0),
            tenants: Mutex::new(HashMap::new()),
        }
    }

    /// Queries currently admitted and executing.
    pub fn in_flight(&self) -> usize {
        self.in_flight.load(Ordering::Acquire)
    }

    /// Try to admit one query for `tenant`. The quota is checked first,
    /// but its token is spent only when the capacity gate admits too, so
    /// a query shed with `503` costs the tenant nothing.
    pub fn admit(&self, tenant: &str) -> Admit<'_> {
        // Gate 1: tenant quota.
        let mut tenants = self
            .tenants
            .lock()
            .expect("no admission holds the tenant lock across a panic");
        let now = Instant::now();
        let bucket = tenants.entry(tenant.to_string()).or_insert(Bucket {
            tokens: self.config.quota_burst,
            last_refill: now,
        });
        let elapsed = now.duration_since(bucket.last_refill).as_secs_f64();
        bucket.tokens =
            (bucket.tokens + elapsed * self.config.quota_per_sec).min(self.config.quota_burst);
        bucket.last_refill = now;
        if bucket.tokens < 1.0 {
            let retry = if self.config.quota_per_sec > 0.0 {
                ((1.0 - bucket.tokens) / self.config.quota_per_sec).ceil() as u64
            } else {
                // Never refills: the quota is a per-session budget;
                // "retry in a minute" is the most honest constant.
                60
            };
            obs_handles::rejected_quota().inc();
            return Admit::Throttled {
                retry_after_secs: retry.max(1),
            };
        }

        // Gate 2: shared capacity. An atomic update so a burst cannot
        // overshoot the bound between load and store (guards release
        // without the tenant lock).
        let entered = self
            .in_flight
            .fetch_update(Ordering::AcqRel, Ordering::Acquire, |n| {
                (n < self.config.max_in_flight).then_some(n + 1)
            });
        if entered.is_err() {
            obs_handles::rejected_busy().inc();
            return Admit::Busy {
                retry_after_secs: 1,
            };
        }
        bucket.tokens -= 1.0;
        obs_handles::admitted().inc();
        obs_handles::queue_depth().add(1);
        Admit::Granted(InFlightGuard { gate: self })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quota_exhausts_and_throttles() {
        let gate = Admission::new(AdmissionConfig {
            max_in_flight: 16,
            quota_burst: 2.0,
            quota_per_sec: 0.0,
        });
        assert!(matches!(gate.admit("alice"), Admit::Granted(_)));
        assert!(matches!(gate.admit("alice"), Admit::Granted(_)));
        match gate.admit("alice") {
            Admit::Throttled { retry_after_secs } => assert!(retry_after_secs >= 1),
            _ => panic!("third request must throttle"),
        }
        // Quotas are per tenant: bob is unaffected by alice's burn.
        assert!(matches!(gate.admit("bob"), Admit::Granted(_)));
    }

    #[test]
    fn capacity_sheds_and_releases() {
        let gate = Admission::new(AdmissionConfig {
            max_in_flight: 1,
            quota_burst: 100.0,
            quota_per_sec: 0.0,
        });
        let g1 = match gate.admit("a") {
            Admit::Granted(g) => g,
            _ => panic!("first must pass"),
        };
        assert_eq!(gate.in_flight(), 1);
        assert!(matches!(gate.admit("b"), Admit::Busy { .. }));
        drop(g1);
        assert_eq!(gate.in_flight(), 0);
        assert!(matches!(gate.admit("b"), Admit::Granted(_)));
    }

    /// A query shed by the capacity gate keeps its tenant's token: with a
    /// one-token burst, `b`'s retry after the slot frees is admitted, not
    /// throttled.
    #[test]
    fn shed_query_keeps_its_token() {
        let gate = Admission::new(AdmissionConfig {
            max_in_flight: 1,
            quota_burst: 1.0,
            quota_per_sec: 0.0,
        });
        let g1 = match gate.admit("a") {
            Admit::Granted(g) => g,
            _ => panic!("first must pass"),
        };
        assert!(matches!(gate.admit("b"), Admit::Busy { .. }));
        drop(g1);
        assert!(matches!(gate.admit("b"), Admit::Granted(_)));
        assert!(matches!(gate.admit("b"), Admit::Throttled { .. }));
    }

    #[test]
    fn zero_capacity_rejects_everything() {
        let gate = Admission::new(AdmissionConfig {
            max_in_flight: 0,
            quota_burst: 100.0,
            quota_per_sec: 0.0,
        });
        assert!(matches!(gate.admit("a"), Admit::Busy { .. }));
    }

    #[test]
    fn refill_restores_tokens() {
        let gate = Admission::new(AdmissionConfig {
            max_in_flight: 16,
            quota_burst: 1.0,
            quota_per_sec: 1000.0,
        });
        assert!(matches!(gate.admit("t"), Admit::Granted(_)));
        // At 1000 tokens/sec the bucket is full again almost instantly.
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(matches!(gate.admit("t"), Admit::Granted(_)));
    }
}
