//! Lightweight simulation statistics: named counters.
//!
//! The bag knows how to [`Counters::export`] itself into the unified
//! [`MetricsRegistry`](weakord_obs::MetricsRegistry), which is the
//! namespaced facade the CLI and bench harness read. Latency
//! distributions use `weakord_obs::Histogram`.

use std::collections::BTreeMap;
use std::fmt;
use weakord_obs::MetricsRegistry;

/// A bag of named monotonically increasing counters.
///
/// # Examples
///
/// ```
/// use weakord_sim::Counters;
/// let mut c = Counters::new();
/// c.add("messages", 3);
/// c.incr("messages");
/// assert_eq!(c.get("messages"), 4);
/// assert_eq!(c.get("unknown"), 0);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counters {
    map: BTreeMap<&'static str, u64>,
}

impl Counters {
    /// An empty bag.
    pub fn new() -> Self {
        Counters::default()
    }

    /// Adds `n` to a counter (creating it at zero).
    pub fn add(&mut self, name: &'static str, n: u64) {
        *self.map.entry(name).or_insert(0) += n;
    }

    /// Adds one.
    pub fn incr(&mut self, name: &'static str) {
        self.add(name, 1);
    }

    /// Reads a counter (0 if never touched).
    pub fn get(&self, name: &str) -> u64 {
        self.map.get(name).copied().unwrap_or(0)
    }

    /// Iterates over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, u64)> + '_ {
        self.map.iter().map(|(k, v)| (*k, *v))
    }

    /// Folds every counter into `reg` under the `ns.` prefix.
    pub fn export(&self, ns: &str, reg: &mut MetricsRegistry) {
        reg.absorb(ns, self.iter());
    }
}

impl fmt::Display for Counters {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, (k, v)) in self.map.iter().enumerate() {
            if i > 0 {
                writeln!(f)?;
            }
            write!(f, "{k:<32} {v}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut c = Counters::new();
        c.incr("a");
        c.add("a", 2);
        c.incr("b");
        assert_eq!(c.get("a"), 3);
        assert_eq!(c.get("b"), 1);
        let pairs: Vec<_> = c.iter().collect();
        assert_eq!(pairs, vec![("a", 3), ("b", 1)]);
    }

    #[test]
    fn counters_display() {
        let mut c = Counters::new();
        c.add("msgs", 7);
        assert!(c.to_string().contains("msgs"));
    }

    #[test]
    fn export_folds_into_the_registry() {
        let mut reg = weakord_obs::MetricsRegistry::new();
        let mut c = Counters::new();
        c.add("msgs", 7);
        c.export("sim", &mut reg);
        assert_eq!(reg.get("sim.msgs"), 7);
    }
}
