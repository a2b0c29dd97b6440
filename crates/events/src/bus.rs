//! The publish/subscribe event bus.
//!
//! [`EventBus`] is the in-process stand-in for the active middleware
//! platform the paper relies on (ref \[2\]). Services subscribe with a
//! [`TopicPattern`]; publishers address a concrete [`Topic`]. Two
//! subscription styles are offered:
//!
//! * **Queued** ([`EventBus::subscribe`]) — events are copied into a
//!   per-subscriber mailbox and consumed with `recv`/`try_recv`. This models
//!   a service that processes notifications on its own schedule.
//! * **Callback** ([`EventBus::subscribe_fn`]) — a closure runs inline on
//!   the publisher's thread. This models the *active security* requirement:
//!   a revocation event must collapse dependent roles immediately, before
//!   the publisher proceeds.

use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

use parking_lot::{Condvar, Mutex, RwLock};

use crate::error::EventError;
use crate::stats::{BusSeries, BusStats};
use crate::topic::{Topic, TopicPattern};

/// Identifier of a queued subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct SubscriptionId(pub u64);

impl fmt::Display for SubscriptionId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "sub-{}", self.0)
    }
}

/// Identifier of a callback subscription.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CallbackId(pub u64);

impl fmt::Display for CallbackId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "cb-{}", self.0)
    }
}

/// Topic prefix under which the bus announces mailbox-overflow drops:
/// a payload discarded from a bounded mailbox subscribed to topic `t` is
/// republished on `bus.overflow.t` (see [`EventBus::publish_at`]).
pub const OVERFLOW_TOPIC_PREFIX: &str = "bus.overflow";

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

/// What a bounded mailbox does when a new event arrives while full.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Discard the incoming event (the subscriber keeps the oldest backlog).
    #[default]
    DropNewest,
    /// Discard the oldest queued event to make room (subscriber keeps the
    /// freshest view — appropriate for heartbeat-style topics).
    DropOldest,
}

struct Mailbox<M> {
    queue: Mutex<VecDeque<DeliveredEvent<M>>>,
    available: Condvar,
    capacity: Option<usize>,
    policy: OverflowPolicy,
    closed: AtomicBool,
}

impl<M> Mailbox<M> {
    fn new(capacity: Option<usize>, policy: OverflowPolicy) -> Self {
        Self {
            queue: Mutex::new(VecDeque::new()),
            available: Condvar::new(),
            capacity,
            policy,
            closed: AtomicBool::new(false),
        }
    }

    /// Pushes an event, returning the event an overflow discarded (the
    /// incoming one under [`OverflowPolicy::DropNewest`], the oldest
    /// queued one under [`OverflowPolicy::DropOldest`]), or `None` when
    /// nothing was dropped.
    fn push(&self, event: DeliveredEvent<M>) -> Option<DeliveredEvent<M>> {
        let mut queue = self.queue.lock();
        let mut dropped = None;
        if let Some(cap) = self.capacity {
            if queue.len() >= cap {
                match self.policy {
                    OverflowPolicy::DropNewest => {
                        return Some(event);
                    }
                    OverflowPolicy::DropOldest => {
                        dropped = queue.pop_front();
                    }
                }
            }
        }
        queue.push_back(event);
        drop(queue);
        self.available.notify_one();
        dropped
    }

    fn try_recv(&self) -> Result<DeliveredEvent<M>, EventError> {
        let mut queue = self.queue.lock();
        match queue.pop_front() {
            Some(e) => Ok(e),
            None if self.closed.load(Ordering::Acquire) => Err(EventError::Disconnected),
            None => Err(EventError::Empty),
        }
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<DeliveredEvent<M>, EventError> {
        let mut queue = self.queue.lock();
        loop {
            if let Some(e) = queue.pop_front() {
                return Ok(e);
            }
            if self.closed.load(Ordering::Acquire) {
                return Err(EventError::Disconnected);
            }
            if self.available.wait_for(&mut queue, timeout).timed_out() {
                return Err(EventError::Empty);
            }
        }
    }

    fn close(&self) {
        self.closed.store(true, Ordering::Release);
        self.available.notify_all();
    }

    fn len(&self) -> usize {
        self.queue.lock().len()
    }
}

struct QueuedSub<M> {
    pattern: TopicPattern,
    mailbox: Arc<Mailbox<M>>,
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
    queued: RwLock<HashMap<SubscriptionId, QueuedSub<M>>>,
    callbacks: RwLock<HashMap<CallbackId, CallbackSub<M>>>,
    topic_seq: Mutex<HashMap<Topic, u64>>,
    retention: RwLock<Vec<RetentionCfg>>,
    rings: Mutex<HashMap<Topic, VecDeque<DeliveredEvent<M>>>>,
    next_sub: AtomicU64,
    next_cb: AtomicU64,
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
/// use oasis_events::{EventBus, Topic};
///
/// let bus: EventBus<u32> = EventBus::new();
/// let sub = bus.subscribe("alerts.#").unwrap();
/// bus.publish(&Topic::new("alerts.fire"), 7);
/// assert_eq!(sub.try_recv().unwrap().payload, 7);
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
            .field("queued_subscriptions", &self.inner.queued.read().len())
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
                queued: RwLock::new(HashMap::new()),
                callbacks: RwLock::new(HashMap::new()),
                topic_seq: Mutex::new(HashMap::new()),
                retention: RwLock::new(Vec::new()),
                rings: Mutex::new(HashMap::new()),
                next_sub: AtomicU64::new(1),
                next_cb: AtomicU64::new(1),
                global_seq: AtomicU64::new(0),
                stats: BusSeries::resolve(&metrics, ""),
                metrics,
            }),
        }
    }

    /// Subscribes with an unbounded mailbox.
    ///
    /// # Errors
    ///
    /// Returns [`EventError::InvalidTopic`] if `pattern` does not parse.
    pub fn subscribe(&self, pattern: impl AsRef<str>) -> Result<Subscription<M>, EventError> {
        self.subscribe_with(pattern, None, OverflowPolicy::default())
    }

    /// Subscribes with a bounded mailbox of `capacity` events and the given
    /// overflow policy.
    ///
    /// # Errors
    ///
    /// Returns [`EventError::InvalidTopic`] if `pattern` does not parse.
    pub fn subscribe_bounded(
        &self,
        pattern: impl AsRef<str>,
        capacity: usize,
        policy: OverflowPolicy,
    ) -> Result<Subscription<M>, EventError> {
        self.subscribe_with(pattern, Some(capacity), policy)
    }

    fn subscribe_with(
        &self,
        pattern: impl AsRef<str>,
        capacity: Option<usize>,
        policy: OverflowPolicy,
    ) -> Result<Subscription<M>, EventError> {
        let pattern = TopicPattern::parse(pattern.as_ref())?;
        let id = SubscriptionId(self.inner.next_sub.fetch_add(1, Ordering::Relaxed));
        let mailbox = Arc::new(Mailbox::new(capacity, policy));
        self.inner.queued.write().insert(
            id,
            QueuedSub {
                pattern,
                mailbox: Arc::clone(&mailbox),
            },
        );
        Ok(Subscription {
            id,
            mailbox,
            bus: Arc::downgrade(&self.inner),
        })
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
    ) -> Result<CallbackId, EventError> {
        let pattern = TopicPattern::parse(pattern.as_ref())?;
        let id = CallbackId(self.inner.next_cb.fetch_add(1, Ordering::Relaxed));
        self.inner.callbacks.write().insert(
            id,
            CallbackSub {
                pattern,
                callback: Box::new(callback),
            },
        );
        Ok(id)
    }

    /// Removes a callback subscription.
    ///
    /// # Errors
    ///
    /// Returns [`EventError::UnknownSubscription`] if `id` is not live.
    pub fn remove_callback(&self, id: CallbackId) -> Result<(), EventError> {
        self.inner
            .callbacks
            .write()
            .remove(&id)
            .map(|_| ())
            .ok_or(EventError::UnknownSubscription(id.0))
    }

    /// Publishes an event with timestamp 0; see [`EventBus::publish_at`].
    pub fn publish(&self, topic: &Topic, payload: M) -> usize
    where
        M: Clone,
    {
        self.publish_at(topic, payload, 0)
    }

    /// Publishes an event carrying a caller-supplied virtual `timestamp`,
    /// returning the number of subscribers it was delivered to (queued
    /// mailboxes that accepted it plus callbacks invoked).
    ///
    /// Events matching no subscription are counted as dead letters in
    /// [`BusStats`].
    ///
    /// # Overflow self-events
    ///
    /// When a bounded mailbox overflows, the discarded payload is
    /// republished on [`OVERFLOW_TOPIC_PREFIX`]`.<original topic>` so
    /// monitors (and tests) can observe exactly what was lost — a dropped
    /// revocation notice is a safety event, not a statistic. Self-events
    /// are counted in [`BusStats::overflow_events`] and are never
    /// themselves re-announced: a drop on a `bus.overflow.*` topic only
    /// increments [`BusStats::dropped_overflow`].
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
        let mut overflowed: Vec<DeliveredEvent<M>> = Vec::new();
        {
            // read_recursive: a callback may itself publish (revocation
            // cascades re-enter the bus on the publisher's thread); a plain
            // read() could deadlock against a parked writer.
            let queued = self.inner.queued.read_recursive();
            for sub in queued.values() {
                if sub.pattern.matches(topic) {
                    if let Some(dropped) = sub.mailbox.push(event.clone()) {
                        self.inner.stats.dropped_overflow.inc();
                        overflowed.push(dropped);
                    }
                    delivered += 1;
                }
            }
        }
        {
            let callbacks = self.inner.callbacks.read_recursive();
            for sub in callbacks.values() {
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
        // Announce drops after the delivery loops (no locks held), unless
        // the drop happened on an overflow topic itself — the announcement
        // stream must not amplify its own losses.
        if !topic.as_str().starts_with(OVERFLOW_TOPIC_PREFIX) {
            for dropped in overflowed {
                self.inner.stats.overflow_events.inc();
                self.publish_at(
                    &Topic::new(format!(
                        "{OVERFLOW_TOPIC_PREFIX}.{}",
                        dropped.topic.as_str()
                    )),
                    dropped.payload,
                    timestamp,
                );
            }
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
    pub fn retained_len(&self, topic: &Topic) -> usize {
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

    /// Number of live subscriptions (queued + callback).
    pub fn subscription_count(&self) -> usize {
        self.inner.queued.read().len() + self.inner.callbacks.read().len()
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

/// A queued subscription handle; dropping it unsubscribes.
pub struct Subscription<M> {
    id: SubscriptionId,
    mailbox: Arc<Mailbox<M>>,
    bus: std::sync::Weak<Inner<M>>,
}

impl<M> fmt::Debug for Subscription<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Subscription")
            .field("id", &self.id)
            .field("pending", &self.mailbox.len())
            .finish()
    }
}

impl<M> Subscription<M> {
    /// This subscription's identifier.
    pub fn id(&self) -> SubscriptionId {
        self.id
    }

    /// Pops the next pending event without blocking.
    ///
    /// # Errors
    ///
    /// [`EventError::Empty`] if no event is pending, or
    /// [`EventError::Disconnected`] if the bus has been dropped and the
    /// backlog is exhausted.
    pub fn try_recv(&self) -> Result<DeliveredEvent<M>, EventError> {
        self.mailbox.try_recv()
    }

    /// Blocks up to `timeout` for the next event.
    ///
    /// # Errors
    ///
    /// [`EventError::Empty`] on timeout, [`EventError::Disconnected`] if the
    /// bus has been dropped and the backlog is exhausted.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<DeliveredEvent<M>, EventError> {
        self.mailbox.recv_timeout(timeout)
    }

    /// Drains every currently pending event.
    pub fn drain(&self) -> Vec<DeliveredEvent<M>> {
        let mut out = Vec::new();
        while let Ok(e) = self.try_recv() {
            out.push(e);
        }
        out
    }

    /// Number of events waiting in the mailbox.
    pub fn pending(&self) -> usize {
        self.mailbox.len()
    }
}

impl<M> Drop for Subscription<M> {
    fn drop(&mut self) {
        if let Some(inner) = self.bus.upgrade() {
            inner.queued.write().remove(&self.id);
        }
        self.mailbox.close();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_reaches_matching_subscriber() {
        let bus: EventBus<&'static str> = EventBus::new();
        let sub = bus.subscribe("a.b").unwrap();
        let n = bus.publish(&Topic::new("a.b"), "hello");
        assert_eq!(n, 1);
        assert_eq!(sub.try_recv().unwrap().payload, "hello");
    }

    #[test]
    fn publish_skips_non_matching_subscriber() {
        let bus: EventBus<u8> = EventBus::new();
        let sub = bus.subscribe("a.b").unwrap();
        let n = bus.publish(&Topic::new("a.c"), 1);
        assert_eq!(n, 0);
        assert_eq!(sub.try_recv(), Err(EventError::Empty));
    }

    #[test]
    fn wildcard_subscription_sees_all_children() {
        let bus: EventBus<u8> = EventBus::new();
        let sub = bus.subscribe("cred.revoked.*").unwrap();
        bus.publish(&Topic::new("cred.revoked.hospital"), 1);
        bus.publish(&Topic::new("cred.revoked.clinic"), 2);
        bus.publish(&Topic::new("cred.issued.clinic"), 3);
        let got: Vec<u8> = sub.drain().into_iter().map(|e| e.payload).collect();
        assert_eq!(got, vec![1, 2]);
    }

    #[test]
    fn per_topic_sequence_numbers_increase() {
        let bus: EventBus<u8> = EventBus::new();
        let sub = bus.subscribe("#").unwrap();
        bus.publish(&Topic::new("x"), 0);
        bus.publish(&Topic::new("y"), 0);
        bus.publish(&Topic::new("x"), 0);
        let events = sub.drain();
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
    fn removed_callback_no_longer_fires() {
        let bus: EventBus<u8> = EventBus::new();
        let hits = Arc::new(AtomicU64::new(0));
        let hits2 = Arc::clone(&hits);
        let id = bus
            .subscribe_fn("r", move |_| {
                hits2.fetch_add(1, Ordering::Relaxed);
            })
            .unwrap();
        bus.publish(&Topic::new("r"), 0);
        bus.remove_callback(id).unwrap();
        bus.publish(&Topic::new("r"), 0);
        assert_eq!(hits.load(Ordering::Relaxed), 1);
        assert_eq!(
            bus.remove_callback(id),
            Err(EventError::UnknownSubscription(id.0))
        );
    }

    #[test]
    fn dropping_subscription_unsubscribes() {
        let bus: EventBus<u8> = EventBus::new();
        let sub = bus.subscribe("t").unwrap();
        assert_eq!(bus.subscription_count(), 1);
        drop(sub);
        assert_eq!(bus.subscription_count(), 0);
        assert_eq!(bus.publish(&Topic::new("t"), 1), 0);
    }

    #[test]
    fn bounded_drop_newest_keeps_oldest() {
        let bus: EventBus<u8> = EventBus::new();
        let sub = bus
            .subscribe_bounded("t", 2, OverflowPolicy::DropNewest)
            .unwrap();
        for i in 0..4 {
            bus.publish(&Topic::new("t"), i);
        }
        let got: Vec<u8> = sub.drain().into_iter().map(|e| e.payload).collect();
        assert_eq!(got, vec![0, 1]);
        assert_eq!(bus.stats().dropped_overflow, 2);
    }

    #[test]
    fn bounded_drop_oldest_keeps_newest() {
        let bus: EventBus<u8> = EventBus::new();
        let sub = bus
            .subscribe_bounded("t", 2, OverflowPolicy::DropOldest)
            .unwrap();
        for i in 0..4 {
            bus.publish(&Topic::new("t"), i);
        }
        let got: Vec<u8> = sub.drain().into_iter().map(|e| e.payload).collect();
        assert_eq!(got, vec![2, 3]);
    }

    #[test]
    fn overflow_publishes_self_event_with_dropped_payload() {
        let bus: EventBus<u8> = EventBus::new();
        let monitor = bus.subscribe("bus.overflow.#").unwrap();
        let _narrow = bus
            .subscribe_bounded("t", 1, OverflowPolicy::DropNewest)
            .unwrap();
        bus.publish(&Topic::new("t"), 1);
        bus.publish(&Topic::new("t"), 2);
        let lost = monitor.drain();
        assert_eq!(lost.len(), 1);
        assert_eq!(lost[0].topic.as_str(), "bus.overflow.t");
        assert_eq!(lost[0].payload, 2, "DropNewest discards the incoming event");
        let stats = bus.stats();
        assert_eq!(stats.dropped_overflow, 1);
        assert_eq!(stats.overflow_events, 1);
    }

    #[test]
    fn overflow_self_event_carries_oldest_under_drop_oldest() {
        let bus: EventBus<u8> = EventBus::new();
        let monitor = bus.subscribe("bus.overflow.#").unwrap();
        let sub = bus
            .subscribe_bounded("t", 1, OverflowPolicy::DropOldest)
            .unwrap();
        bus.publish_at(&Topic::new("t"), 1, 7);
        bus.publish_at(&Topic::new("t"), 2, 8);
        let lost = monitor.drain();
        assert_eq!(lost.len(), 1);
        assert_eq!(lost[0].payload, 1, "DropOldest discards the queued event");
        assert_eq!(lost[0].timestamp, 8, "stamped with the drop-time publish");
        assert_eq!(sub.try_recv().unwrap().payload, 2);
    }

    #[test]
    fn overflow_of_the_overflow_topic_does_not_recurse() {
        let bus: EventBus<u8> = EventBus::new();
        // A monitor so congested it loses the announcements themselves.
        let monitor = bus
            .subscribe_bounded("bus.overflow.#", 1, OverflowPolicy::DropNewest)
            .unwrap();
        let _narrow = bus
            .subscribe_bounded("t", 1, OverflowPolicy::DropNewest)
            .unwrap();
        for i in 0..4 {
            bus.publish(&Topic::new("t"), i);
        }
        // 3 drops on `t` → 3 announcements, of which the monitor kept 1
        // and dropped 2; those 2 drops are counted but not re-announced.
        assert_eq!(monitor.pending(), 1);
        let stats = bus.stats();
        assert_eq!(stats.overflow_events, 3);
        assert_eq!(stats.dropped_overflow, 5);
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
    fn recv_timeout_times_out_when_idle() {
        let bus: EventBus<u8> = EventBus::new();
        let sub = bus.subscribe("t").unwrap();
        let res = sub.recv_timeout(Duration::from_millis(10));
        assert_eq!(res, Err(EventError::Empty));
    }

    #[test]
    fn recv_timeout_wakes_on_publish_from_other_thread() {
        let bus: EventBus<u8> = EventBus::new();
        let sub = bus.subscribe("t").unwrap();
        let bus2 = bus.clone();
        let handle = std::thread::spawn(move || {
            bus2.publish(&Topic::new("t"), 9);
        });
        let event = sub.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!(event.payload, 9);
        handle.join().unwrap();
    }

    #[test]
    fn timestamps_are_carried() {
        let bus: EventBus<u8> = EventBus::new();
        let sub = bus.subscribe("t").unwrap();
        bus.publish_at(&Topic::new("t"), 1, 12_345);
        assert_eq!(sub.try_recv().unwrap().timestamp, 12_345);
    }

    #[test]
    fn concurrent_publishers_totally_ordered() {
        let bus: EventBus<u64> = EventBus::new();
        let sub = bus.subscribe("#").unwrap();
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
        let events = sub.drain();
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
