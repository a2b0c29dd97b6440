//! The publish/subscribe event bus.
//!
//! [`EventBus`] is the in-process stand-in for the active middleware
//! platform the paper relies on (ref \[2\]). Services subscribe with a
//! [`TopicPattern`]; publishers address a concrete [`Topic`]. Delivery
//! is one mechanism: a callback ([`EventBus::subscribe_fn`]) runs inline
//! on the publisher's thread, so a revocation event has collapsed the
//! dependent roles before the publisher proceeds — the paper's *active
//! security* requirement. Callbacks run in subscription order.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, RwLock};

use crate::error::EventError;
use crate::stats::{BusSeries, BusStats};
use crate::topic::{Topic, TopicPattern};

/// An event as delivered to a subscriber.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeliveredEvent<M> {
    /// The concrete topic the event was published on.
    pub topic: Topic,
    /// Per-topic sequence number (starts at 1 and increases by 1 for each
    /// publication on the same topic).
    pub topic_seq: u64,
    /// Bus-wide sequence number, totally ordering all publications.
    pub global_seq: u64,
    /// Virtual timestamp supplied by the publisher (0 when unspecified).
    pub timestamp: u64,
    /// The message itself.
    pub payload: M,
    /// Causal trace context captured from the publisher's ambient scope
    /// (`oasis_obs::current()`), so a subscriber can parent its own span
    /// on the publication that caused it. `None` when the publisher was
    /// not inside a traced request.
    pub trace: Option<oasis_obs::TraceCtx>,
}

type Callback<M> = Box<dyn Fn(&DeliveredEvent<M>) + Send + Sync>;

struct CallbackSub<M> {
    pattern: TopicPattern,
    callback: Callback<M>,
}

/// One retention rule: topics matching `pattern` keep their last
/// `capacity` events in a replayable ring.
struct RetentionCfg {
    pattern: TopicPattern,
    capacity: usize,
}

struct Inner<M> {
    /// In subscription order: one publication runs its callbacks (and
    /// so numbers any nested publications) the same way on every bus.
    callbacks: RwLock<Vec<CallbackSub<M>>>,
    topic_seq: Mutex<HashMap<Topic, u64>>,
    retention: RwLock<Vec<RetentionCfg>>,
    rings: Mutex<HashMap<Topic, VecDeque<DeliveredEvent<M>>>>,
    global_seq: AtomicU64,
    metrics: oasis_obs::Registry,
    stats: BusSeries,
}

/// A topic-based publish/subscribe bus carrying messages of type `M`.
///
/// Cloning an `EventBus` produces another handle to the same bus. The bus is
/// thread-safe; publications from different threads are totally ordered by
/// [`DeliveredEvent::global_seq`].
///
/// # Example
///
/// ```
/// use std::sync::atomic::{AtomicU32, Ordering};
/// use std::sync::Arc;
///
/// use oasis_events::{EventBus, Topic};
///
/// let bus: EventBus<u32> = EventBus::new();
/// let sum = Arc::new(AtomicU32::new(0));
/// let sink = Arc::clone(&sum);
/// bus.subscribe_fn("alerts.#", move |event| {
///     sink.fetch_add(event.payload, Ordering::Relaxed);
/// })
/// .unwrap();
/// assert_eq!(bus.publish(&Topic::new("alerts.fire"), 7), 1);
/// assert_eq!(sum.load(Ordering::Relaxed), 7);
/// ```
pub struct EventBus<M> {
    inner: Arc<Inner<M>>,
}

impl<M> Clone for EventBus<M> {
    fn clone(&self) -> Self {
        Self {
            inner: Arc::clone(&self.inner),
        }
    }
}

impl<M> fmt::Debug for EventBus<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("EventBus")
            .field("callback_subscriptions", &self.inner.callbacks.read().len())
            .field("stats", &self.stats())
            .finish()
    }
}

impl<M> Default for EventBus<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> EventBus<M> {
    /// Creates an empty bus.
    pub fn new() -> Self {
        let metrics = oasis_obs::Registry::new();
        Self {
            inner: Arc::new(Inner {
                callbacks: RwLock::new(Vec::new()),
                topic_seq: Mutex::new(HashMap::new()),
                retention: RwLock::new(Vec::new()),
                rings: Mutex::new(HashMap::new()),
                global_seq: AtomicU64::new(0),
                stats: BusSeries::resolve(&metrics, ""),
                metrics,
            }),
        }
    }

    /// Registers a callback that runs *inline on the publisher's thread* for
    /// every event matching `pattern`.
    ///
    /// Inline delivery is what gives OASIS its "active" quality: a
    /// revocation callback has completed — and the dependent role subtree
    /// has collapsed — before the publisher's `publish` call returns.
    ///
    /// # Errors
    ///
    /// Returns [`EventError::InvalidTopic`] if `pattern` does not parse.
    pub fn subscribe_fn(
        &self,
        pattern: impl AsRef<str>,
        callback: impl Fn(&DeliveredEvent<M>) + Send + Sync + 'static,
    ) -> Result<(), EventError> {
        let pattern = TopicPattern::parse(pattern.as_ref())?;
        self.inner.callbacks.write().push(CallbackSub {
            pattern,
            callback: Box::new(callback),
        });
        Ok(())
    }

    /// Publishes an event with timestamp 0; see [`EventBus::publish_at`].
    pub fn publish(&self, topic: &Topic, payload: M) -> usize
    where
        M: Clone,
    {
        self.publish_at(topic, payload, 0)
    }

    /// Publishes an event carrying a caller-supplied virtual `timestamp`,
    /// returning the number of callbacks it ran.
    ///
    /// Events matching no subscription are counted as dead letters in
    /// [`BusStats`].
    pub fn publish_at(&self, topic: &Topic, payload: M, timestamp: u64) -> usize
    where
        M: Clone,
    {
        self.publish_at_tracked(topic, payload, timestamp).2
    }

    /// Like [`EventBus::publish_at`], but also returns the sequence
    /// numbers the publication was assigned: `(topic_seq, global_seq,
    /// delivered)`. Durable publishers journal these so a restarted
    /// (or failed-over) node can restore its retained ring with the
    /// *original* numbering and serve gap-free replays.
    pub fn publish_at_tracked(&self, topic: &Topic, payload: M, timestamp: u64) -> (u64, u64, usize)
    where
        M: Clone,
    {
        let global_seq = self.inner.global_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let topic_seq = {
            let mut seqs = self.inner.topic_seq.lock();
            let entry = seqs.entry(topic.clone()).or_insert(0);
            *entry += 1;
            *entry
        };
        let event = DeliveredEvent {
            topic: topic.clone(),
            topic_seq,
            global_seq,
            timestamp,
            payload,
            trace: oasis_obs::current(),
        };
        // Retain before delivery so a subscriber that resyncs from
        // inside an inline callback already sees this event.
        self.retain_event(&event);

        let mut delivered = 0;
        {
            // read_recursive: a callback may itself publish (revocation
            // cascades re-enter the bus on the publisher's thread); a plain
            // read() could deadlock against a parked writer.
            let callbacks = self.inner.callbacks.read_recursive();
            for sub in callbacks.iter() {
                if sub.pattern.matches(topic) {
                    (sub.callback)(&event);
                    delivered += 1;
                }
            }
        }

        self.inner.stats.published.inc();
        self.inner.stats.delivered.add(delivered as u64);
        if delivered == 0 {
            self.inner.stats.dead_letters.inc();
        }
        (topic_seq, global_seq, delivered)
    }

    /// Copies `event` into the retained ring of its topic, if any
    /// retention rule matches, evicting the oldest retained event when
    /// the ring is at capacity.
    fn retain_event(&self, event: &DeliveredEvent<M>)
    where
        M: Clone,
    {
        let retention = self.inner.retention.read();
        let Some(cfg) = retention.iter().find(|c| c.pattern.matches(&event.topic)) else {
            return;
        };
        let capacity = cfg.capacity;
        drop(retention);
        let mut rings = self.inner.rings.lock();
        let ring = rings.entry(event.topic.clone()).or_default();
        if ring.len() >= capacity {
            ring.pop_front();
            self.inner.stats.retained_evictions.inc();
        }
        ring.push_back(event.clone());
    }

    /// Enables bounded retention for topics matching `pattern`: each
    /// matching topic keeps its most recent `capacity` events in a ring
    /// replayable through [`EventBus::replay_after`]. Evicted events
    /// count in [`BusStats::retained_evictions`]; a subscriber whose
    /// watermark predates the ring learns its catch-up is incomplete.
    ///
    /// The first matching rule wins when several patterns overlap.
    /// Events published before retention was enabled are not retained.
    ///
    /// # Errors
    ///
    /// [`EventError::InvalidTopic`] if `pattern` does not parse, or
    /// [`EventError::InvalidCapacity`] for a zero capacity.
    pub fn retain(&self, pattern: impl AsRef<str>, capacity: usize) -> Result<(), EventError> {
        if capacity == 0 {
            return Err(EventError::InvalidCapacity);
        }
        let pattern = TopicPattern::parse(pattern.as_ref())?;
        self.inner
            .retention
            .write()
            .push(RetentionCfg { pattern, capacity });
        Ok(())
    }

    /// Replays the retained events of `topic` with `topic_seq >
    /// after_topic_seq`, oldest first. The second component is `true`
    /// when the replay is *gap-free*: every event published on the
    /// topic after the watermark is included. `false` means the ring
    /// has already evicted part of the range (or retention was not
    /// active for it) — the caller must treat its derived state as
    /// unverifiable and rebuild it from an authoritative source.
    pub fn replay_after(
        &self,
        topic: &Topic,
        after_topic_seq: u64,
    ) -> (Vec<DeliveredEvent<M>>, bool)
    where
        M: Clone,
    {
        let current = self.inner.topic_seq.lock().get(topic).copied().unwrap_or(0);
        if current <= after_topic_seq {
            return (Vec::new(), true);
        }
        let rings = self.inner.rings.lock();
        let events: Vec<DeliveredEvent<M>> = rings
            .get(topic)
            .map(|ring| {
                ring.iter()
                    .filter(|e| e.topic_seq > after_topic_seq)
                    .cloned()
                    .collect()
            })
            .unwrap_or_default();
        drop(rings);
        let expected = current - after_topic_seq;
        let complete = events.len() as u64 == expected
            && events.first().map(|e| e.topic_seq) == Some(after_topic_seq + 1);
        (events, complete)
    }

    /// Restores a previously published event into its topic's retained
    /// ring with its *original* sequence numbers, without delivering it
    /// to any subscriber. Used by recovery: a restarted or failed-over
    /// publisher replays its journalled publications through here so
    /// [`EventBus::replay_after`] serves the same gap-free window the
    /// lost node did.
    ///
    /// Idempotent (an event already in the ring is skipped) and
    /// order-insensitive (events are inserted in `topic_seq` order).
    /// The per-topic and global sequence counters are raised to cover
    /// the event so later publications continue the numbering; this
    /// happens even when no retention rule matches the topic.
    pub fn restore_retained(&self, event: DeliveredEvent<M>)
    where
        M: Clone,
    {
        {
            let mut seqs = self.inner.topic_seq.lock();
            let entry = seqs.entry(event.topic.clone()).or_insert(0);
            if event.topic_seq > *entry {
                *entry = event.topic_seq;
            }
        }
        self.inner
            .global_seq
            .fetch_max(event.global_seq, Ordering::Relaxed);
        let retention = self.inner.retention.read();
        let Some(cfg) = retention.iter().find(|c| c.pattern.matches(&event.topic)) else {
            return;
        };
        let capacity = cfg.capacity;
        drop(retention);
        let mut rings = self.inner.rings.lock();
        let ring = rings.entry(event.topic.clone()).or_default();
        if ring.iter().any(|e| e.topic_seq == event.topic_seq) {
            return;
        }
        let pos = ring.partition_point(|e| e.topic_seq < event.topic_seq);
        ring.insert(pos, event);
        while ring.len() > capacity {
            ring.pop_front();
            self.inner.stats.retained_evictions.inc();
        }
    }

    /// How many events the retained ring of `topic` currently holds.
    #[cfg(test)]
    fn retained_len(&self, topic: &Topic) -> usize {
        self.inner
            .rings
            .lock()
            .get(topic)
            .map(VecDeque::len)
            .unwrap_or(0)
    }

    /// The current per-topic sequence number of `topic` (0 if nothing
    /// was ever published on it). A durable subscriber compares this
    /// with its persisted watermark to detect missed events.
    pub fn topic_seq(&self, topic: &Topic) -> u64 {
        self.inner.topic_seq.lock().get(topic).copied().unwrap_or(0)
    }

    /// A snapshot of delivery statistics.
    pub fn stats(&self) -> BusStats {
        self.inner.stats.read()
    }

    /// The bus's own registry, holding the [`BusStats`] series; share it
    /// into a caller's recorder with [`oasis_obs::Recorder::adopt`].
    pub fn metrics(&self) -> &oasis_obs::Registry {
        &self.inner.metrics
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Subscribes a callback on `pattern` that keeps every event it sees.
    fn collect<M: Clone + Send + 'static>(
        bus: &EventBus<M>,
        pattern: &str,
    ) -> Arc<Mutex<Vec<DeliveredEvent<M>>>> {
        let seen = Arc::new(Mutex::new(Vec::new()));
        let sink = Arc::clone(&seen);
        bus.subscribe_fn(pattern, move |e| sink.lock().push(e.clone()))
            .unwrap();
        seen
    }

    #[test]
    fn publish_reaches_matching_subscriber() {
        let bus: EventBus<&'static str> = EventBus::new();
        let seen = collect(&bus, "a.b");
        let n = bus.publish(&Topic::new("a.b"), "hello");
        assert_eq!(n, 1);
        assert_eq!(seen.lock()[0].payload, "hello");
    }

    #[test]
    fn publish_skips_non_matching_subscriber() {
        let bus: EventBus<u8> = EventBus::new();
        let seen = collect(&bus, "a.b");
        let n = bus.publish(&Topic::new("a.c"), 1);
        assert_eq!(n, 0);
        assert!(seen.lock().is_empty());
    }

    #[test]
    fn wildcard_subscription_sees_all_children() {
        let bus: EventBus<u8> = EventBus::new();
        let seen = collect(&bus, "cred.revoked.*");
        bus.publish(&Topic::new("cred.revoked.hospital"), 1);
        bus.publish(&Topic::new("cred.revoked.clinic"), 2);
        bus.publish(&Topic::new("cred.issued.clinic"), 3);
        let got: Vec<u8> = seen.lock().iter().map(|e| e.payload).collect();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn per_topic_sequence_numbers_increase() {
        let bus: EventBus<u8> = EventBus::new();
        let seen = collect(&bus, "#");
        bus.publish(&Topic::new("x"), 0);
        bus.publish(&Topic::new("y"), 0);
        bus.publish(&Topic::new("x"), 0);
        let events = seen.lock();
        assert_eq!(events[0].topic_seq, 1); // x #1
        assert_eq!(events[1].topic_seq, 1); // y #1
        assert_eq!(events[2].topic_seq, 2); // x #2
        assert!(events[0].global_seq < events[1].global_seq);
        assert!(events[1].global_seq < events[2].global_seq);
    }

    #[test]
    fn callback_runs_inline() {
        let bus: EventBus<u8> = EventBus::new();
        let hits = Arc::new(AtomicU64::new(0));
        let hits2 = Arc::clone(&hits);
        bus.subscribe_fn("r.#", move |e| {
            hits2.fetch_add(u64::from(e.payload), Ordering::Relaxed);
        })
        .unwrap();
        bus.publish(&Topic::new("r.a"), 5);
        assert_eq!(hits.load(Ordering::Relaxed), 5);
    }

    #[test]
    fn callbacks_run_in_subscription_order() {
        // Fresh buses, because a hashed callback table would iterate each
        // one in its own order.
        for _ in 0..32 {
            let bus: EventBus<u8> = EventBus::new();
            let order = Arc::new(Mutex::new(Vec::new()));
            for tag in 0..3u8 {
                let order = Arc::clone(&order);
                bus.subscribe_fn("t", move |_| order.lock().push(tag))
                    .unwrap();
            }
            bus.publish(&Topic::new("t"), 0);
            assert_eq!(*order.lock(), vec![0, 1, 2]);
        }
    }

    #[test]
    fn retained_ring_replays_after_watermark() {
        let bus: EventBus<u8> = EventBus::new();
        bus.retain("cred.revoked.*", 8).unwrap();
        let topic = Topic::new("cred.revoked.login");
        for i in 0..5 {
            bus.publish_at(&topic, i, u64::from(i));
        }
        let (events, complete) = bus.replay_after(&topic, 2);
        assert!(complete);
        let got: Vec<u8> = events.iter().map(|e| e.payload).collect();
        assert_eq!(got, vec![2, 3, 4]);
        assert_eq!(events[0].topic_seq, 3);
        // Watermark at the head: nothing to replay, still complete.
        let (none, complete) = bus.replay_after(&topic, 5);
        assert!(none.is_empty());
        assert!(complete);
    }

    #[test]
    fn eviction_makes_replay_incomplete_and_is_counted() {
        let bus: EventBus<u8> = EventBus::new();
        bus.retain("t", 2).unwrap();
        let topic = Topic::new("t");
        for i in 0..5 {
            bus.publish(&topic, i);
        }
        assert_eq!(bus.stats().retained_evictions, 3);
        assert_eq!(bus.retained_len(&topic), 2);
        // Events 1..=3 are gone; a subscriber at watermark 0 cannot be
        // made whole from the ring.
        let (events, complete) = bus.replay_after(&topic, 0);
        assert!(!complete);
        assert_eq!(events.len(), 2);
        // A subscriber whose watermark is inside the ring is fine.
        let (events, complete) = bus.replay_after(&topic, 3);
        assert!(complete);
        assert_eq!(events.len(), 2);
    }

    #[test]
    fn unretained_topic_with_history_replays_incomplete() {
        let bus: EventBus<u8> = EventBus::new();
        let topic = Topic::new("t");
        bus.publish(&topic, 1);
        bus.retain("t", 4).unwrap();
        bus.publish(&topic, 2);
        // Seq 1 predates retention: replay from 0 must admit the gap.
        let (events, complete) = bus.replay_after(&topic, 0);
        assert!(!complete);
        assert_eq!(events.len(), 1);
        assert_eq!(bus.topic_seq(&topic), 2);
    }

    #[test]
    fn zero_capacity_retention_rejected() {
        let bus: EventBus<u8> = EventBus::new();
        assert_eq!(bus.retain("t", 0), Err(EventError::InvalidCapacity));
    }

    #[test]
    fn dead_letters_counted() {
        let bus: EventBus<u8> = EventBus::new();
        bus.publish(&Topic::new("nobody.home"), 1);
        let stats = bus.stats();
        assert_eq!(stats.published, 1);
        assert_eq!(stats.dead_letters, 1);
        assert_eq!(stats.delivered, 0);
    }

    #[test]
    fn timestamps_are_carried() {
        let bus: EventBus<u8> = EventBus::new();
        let seen = collect(&bus, "t");
        bus.publish_at(&Topic::new("t"), 1, 12_345);
        assert_eq!(seen.lock()[0].timestamp, 12_345);
    }

    #[test]
    fn concurrent_publishers_totally_ordered() {
        let bus: EventBus<u64> = EventBus::new();
        let seen = collect(&bus, "#");
        let mut handles = Vec::new();
        for t in 0..4 {
            let bus = bus.clone();
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    bus.publish(&Topic::new(format!("p{t}")), i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let events = seen.lock();
        assert_eq!(events.len(), 400);
        let mut seqs: Vec<u64> = events.iter().map(|e| e.global_seq).collect();
        seqs.sort_unstable();
        seqs.dedup();
        assert_eq!(seqs.len(), 400, "global sequence numbers must be unique");
    }

    #[test]
    fn restore_retained_rebuilds_gap_free_replay() {
        let topic = Topic::new("cred.revoked.civ");
        // Original bus publishes three retained events.
        let bus: EventBus<u8> = EventBus::new();
        bus.retain("cred.revoked.#", 16).unwrap();
        let mut published = Vec::new();
        for i in 1..=3u8 {
            let (ts, gs, _) = bus.publish_at_tracked(&topic, i, u64::from(i) * 10);
            published.push((ts, gs));
        }
        let (retained, complete) = bus.replay_after(&topic, 0);
        assert!(complete);
        // A failed-over bus restores from the journalled publications,
        // delivered out of order and with one duplicate.
        let promoted: EventBus<u8> = EventBus::new();
        promoted.retain("cred.revoked.#", 16).unwrap();
        promoted.restore_retained(retained[2].clone());
        promoted.restore_retained(retained[0].clone());
        promoted.restore_retained(retained[1].clone());
        promoted.restore_retained(retained[1].clone());
        let (replayed, complete) = promoted.replay_after(&topic, 0);
        assert!(complete, "restored ring must serve a gap-free replay");
        assert_eq!(replayed.len(), 3);
        assert_eq!(
            replayed.iter().map(|e| e.topic_seq).collect::<Vec<_>>(),
            vec![1, 2, 3]
        );
        // Counters resumed: the next publication continues the numbering.
        let (ts, gs, _) = promoted.publish_at_tracked(&topic, 9, 99);
        assert_eq!(ts, 4);
        assert!(gs > published[2].1);
    }

    #[test]
    fn restore_retained_raises_counters_without_retention_rule() {
        let topic = Topic::new("plain.topic");
        let bus: EventBus<u8> = EventBus::new();
        bus.restore_retained(DeliveredEvent {
            topic: topic.clone(),
            topic_seq: 7,
            global_seq: 40,
            timestamp: 0,
            payload: 1,
            trace: None,
        });
        assert_eq!(bus.topic_seq(&topic), 7);
        assert_eq!(bus.retained_len(&topic), 0);
        let (ts, gs, _) = bus.publish_at_tracked(&topic, 2, 0);
        assert_eq!(ts, 8);
        assert!(gs > 40);
    }
}
