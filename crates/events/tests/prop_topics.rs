//! Property tests for topic pattern matching: the optimised matcher must
//! agree with a naive reference implementation, and the bus must deliver
//! exactly to matching subscribers.

use std::sync::{Arc, Mutex};

use proptest::prelude::*;

use oasis_events::{EventBus, Topic, TopicPattern};

fn segment() -> impl Strategy<Value = String> {
    "[a-c]{1,2}"
}

fn topic_strategy() -> impl Strategy<Value = String> {
    proptest::collection::vec(segment(), 1..5).prop_map(|segs| segs.join("."))
}

fn pattern_strategy() -> impl Strategy<Value = String> {
    let seg = prop_oneof![segment(), Just("*".to_string())];
    (proptest::collection::vec(seg, 1..5), proptest::bool::ANY).prop_map(|(mut segs, hash)| {
        if hash {
            segs.push("#".to_string());
        }
        segs.join(".")
    })
}

/// Reference matcher, written independently of the production code.
fn reference_matches(pattern: &str, topic: &str) -> bool {
    fn go(pat: &[&str], top: &[&str]) -> bool {
        match (pat.first(), top.first()) {
            (None, None) => true,
            (Some(&"#"), _) => pat.len() == 1, // `#` is final by construction
            (None, Some(_)) => false,
            (Some(_), None) => false,
            (Some(&"*"), Some(_)) => go(&pat[1..], &top[1..]),
            (Some(p), Some(t)) => p == t && go(&pat[1..], &top[1..]),
        }
    }
    let pat: Vec<&str> = pattern.split('.').collect();
    let top: Vec<&str> = topic.split('.').collect();
    go(&pat, &top)
}

proptest! {
    #[test]
    fn matcher_agrees_with_reference(
        pattern in pattern_strategy(),
        topic in topic_strategy(),
    ) {
        let parsed = TopicPattern::parse(pattern.clone()).unwrap();
        let t = Topic::new(topic.clone());
        prop_assert_eq!(
            parsed.matches(&t),
            reference_matches(&pattern, &topic),
            "pattern {} vs topic {}",
            pattern,
            topic
        );
    }

    #[test]
    fn every_topic_matches_itself_and_hash(topic in topic_strategy()) {
        let t = Topic::new(topic.clone());
        let exact = TopicPattern::parse(topic).unwrap();
        prop_assert!(exact.matches(&t));
        prop_assert!(exact.is_exact());
        let all = TopicPattern::parse("#").unwrap();
        prop_assert!(all.matches(&t));
    }

    #[test]
    fn bus_delivers_exactly_to_matching_subscribers(
        patterns in proptest::collection::vec(pattern_strategy(), 1..6),
        topics in proptest::collection::vec(topic_strategy(), 1..10),
    ) {
        let bus: EventBus<usize> = EventBus::new();
        let seen: Vec<Arc<Mutex<Vec<usize>>>> = patterns
            .iter()
            .map(|p| {
                let seen = Arc::new(Mutex::new(Vec::new()));
                let sink = Arc::clone(&seen);
                bus.subscribe_fn(p, move |e| sink.lock().unwrap().push(e.payload))
                    .unwrap();
                seen
            })
            .collect();
        for (i, topic) in topics.iter().enumerate() {
            bus.publish(&Topic::new(topic.clone()), i);
        }
        for (pattern, seen) in patterns.iter().zip(&seen) {
            let got = seen.lock().unwrap().clone();
            let expected: Vec<usize> = topics
                .iter()
                .enumerate()
                .filter(|(_, t)| reference_matches(pattern, t))
                .map(|(i, _)| i)
                .collect();
            prop_assert_eq!(got, expected, "pattern {}", pattern);
        }
    }
}
