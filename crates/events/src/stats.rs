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
