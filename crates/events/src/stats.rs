//! Delivery statistics for an [`EventBus`](crate::EventBus).

oasis_obs::stats_set! {
    /// A point-in-time snapshot of bus activity, read from the bus's
    /// registry series ([`EventBus::metrics`](crate::EventBus::metrics)).
    ///
    /// # Example
    ///
    /// ```
    /// use oasis_events::{EventBus, Topic};
    ///
    /// let bus: EventBus<u8> = EventBus::new();
    /// bus.publish(&Topic::new("unheard"), 1);
    /// let stats = bus.stats();
    /// assert_eq!(stats.published, 1);
    /// assert_eq!(stats.dead_letters, 1);
    /// ```
    #[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
    pub struct BusStats / BusSeries {
        /// Total `publish` calls.
        published: u64 = counter,
        /// Total callback runs (one event to three subscribers = 3).
        delivered: u64 = counter,
        /// Publications that matched no subscription at all.
        dead_letters: u64 = counter,
        /// Events evicted from per-topic retained rings
        /// ([`EventBus::retain`](crate::EventBus::retain)) to make room for
        /// newer ones. A non-zero count means a sufficiently stale
        /// subscriber's catch-up replay may be incomplete.
        retained_evictions: u64 = counter,
    }
}

impl BusStats {
    /// Average fan-out per publication, or 0.0 when nothing was published.
    pub fn fan_out(&self) -> f64 {
        if self.published == 0 {
            0.0
        } else {
            self.delivered as f64 / self.published as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fan_out_handles_zero_publications() {
        assert_eq!(BusStats::default().fan_out(), 0.0);
    }

    #[test]
    fn fan_out_is_average_deliveries() {
        let stats = BusStats {
            published: 2,
            delivered: 6,
            ..BusStats::default()
        };
        assert_eq!(stats.fan_out(), 3.0);
    }
}
