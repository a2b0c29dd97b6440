//! Stats sets: one field list declares a component's typed stats read
//! and the registry series behind it.
//!
//! A component owns one [`Registry`](crate::Registry), resolves its
//! set's handles in it at construction and bumps those handles on the
//! hot path; its typed `stats()` read is the set's `read()`. Attaching
//! the component to a caller's recorder is one
//! [`Recorder::adopt`](crate::Recorder::adopt): the caller's registry
//! then serves the same series under the caller's prefix.

/// Joins a series prefix and a name with `.`; an empty prefix yields
/// the name alone.
pub fn series_name(prefix: &str, name: &str) -> String {
    if prefix.is_empty() {
        name.to_string()
    } else {
        format!("{prefix}.{name}")
    }
}

/// Declares a stats set from one field list: the typed read struct
/// `$Stats` (every field public, documented by the field's docs) and a
/// crate-private handle set `$Series` with `resolve(&Registry, prefix)`
/// and `read() -> $Stats`.
///
/// Each field is `name: Type = kind`, where `kind` is one of:
///
/// * `counter` — a [`Counter`](crate::Counter) named `<prefix>.<name>`;
/// * `gauge` — a [`Gauge`](crate::Gauge) named `<prefix>.<name>`, set
///   by the component wherever the quantity changes;
/// * `micros("series")` — a gauge named `<prefix>.<series>` holding
///   microseconds, read into an `f64` field in milliseconds;
/// * `each(SubSeries, NAMES)` — an array of nested sets, one per name
///   in `NAMES`, each under `<prefix>.<name>`.
///
/// # Example
///
/// ```
/// use oasis_obs::{Recorder, Registry};
///
/// oasis_obs::stats_set! {
///     /// Requests seen by a toy server.
///     #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
///     pub struct ToyStats / ToySeries {
///         /// Requests served.
///         served: u64 = counter,
///         /// Requests waiting right now.
///         waiting: u32 = gauge,
///     }
/// }
///
/// let own = Registry::new();
/// let series = ToySeries::resolve(&own, "");
/// series.served.inc();
/// series.waiting.set(2);
/// assert_eq!(series.read(), ToyStats { served: 1, waiting: 2 });
///
/// let caller = Registry::new();
/// caller.adopt("toy", &own);
/// series.served.inc();
/// assert_eq!(caller.counter("toy.served").get(), 2);
/// ```
#[macro_export]
macro_rules! stats_set {
    (
        $(#[$meta:meta])*
        $vis:vis struct $Stats:ident / $Series:ident {
            $(
                $(#[$doc:meta])*
                $field:ident : $ty:ty = $kind:ident $(($($arg:tt)*))?
            ),* $(,)?
        }
    ) => {
        $(#[$meta])*
        $vis struct $Stats {
            $( $(#[$doc])* pub $field: $ty, )*
        }

        #[doc = concat!("The registry series behind [`", stringify!($Stats), "`].")]
        #[derive(Debug, Clone)]
        pub(crate) struct $Series {
            $( pub(crate) $field: $crate::stats_set!(@handle $kind $(($($arg)*))?), )*
        }

        impl $Series {
            /// Resolves every series of the set in `registry` under `prefix`.
            pub(crate) fn resolve(registry: &$crate::Registry, prefix: &str) -> Self {
                Self {
                    $( $field: $crate::stats_set!(
                        @resolve registry, prefix, $field, $kind $(($($arg)*))?
                    ), )*
                }
            }

            /// The typed read of every series.
            #[allow(clippy::unnecessary_cast)]
            pub(crate) fn read(&self) -> $Stats {
                $Stats {
                    $( $field: $crate::stats_set!(@read self.$field, $ty, $kind), )*
                }
            }
        }
    };

    (@handle counter) => { $crate::Counter };
    (@handle gauge) => { $crate::Gauge };
    (@handle micros($name:literal)) => { $crate::Gauge };
    (@handle each($Sub:ident, $names:expr)) => { Vec<$Sub> };

    (@resolve $reg:ident, $prefix:ident, $field:ident, each($Sub:ident, $names:expr)) => {
        $names
            .iter()
            .map(|name| $Sub::resolve($reg, &$crate::set::series_name($prefix, name)))
            .collect()
    };
    (@resolve $reg:ident, $prefix:ident, $field:ident, counter) => {
        $crate::Recorder::counter($reg, &$crate::set::series_name($prefix, stringify!($field)))
    };
    (@resolve $reg:ident, $prefix:ident, $field:ident, gauge) => {
        $crate::Recorder::gauge($reg, &$crate::set::series_name($prefix, stringify!($field)))
    };
    (@resolve $reg:ident, $prefix:ident, $field:ident, micros($name:literal)) => {
        $crate::Recorder::gauge($reg, &$crate::set::series_name($prefix, $name))
    };

    (@read $h:expr, $ty:ty, counter) => { $h.get() as $ty };
    (@read $h:expr, $ty:ty, gauge) => { $h.get() as $ty };
    (@read $h:expr, $ty:ty, micros) => { $h.get() as f64 / 1000.0 };
    (@read $h:expr, $ty:ty, each) => { std::array::from_fn(|i| $h[i].read()) };
}

#[cfg(test)]
mod tests {
    use crate::{Recorder, Registry};

    crate::stats_set! {
        /// One sub-set.
        #[derive(Debug, Clone, PartialEq)]
        pub struct Part / PartSeries {
            /// Hits.
            hits: u64 = counter,
            /// Wait in ms.
            wait_ms: f64 = micros("wait_us"),
        }
    }

    crate::stats_set! {
        /// A set with nested parts.
        #[derive(Debug, Clone, PartialEq)]
        pub struct Whole / WholeSeries {
            /// Parts, named `a` and `b`.
            parts: [Part; 2] = each(PartSeries, ["a", "b"]),
            /// Depth.
            depth: usize = gauge,
        }
    }

    #[test]
    fn nested_sets_resolve_under_their_names() {
        let reg = Registry::new();
        let series = WholeSeries::resolve(&reg, "w");
        series.parts[1].hits.add(3);
        series.parts[0].wait_ms.set(1_500);
        series.depth.set(4);
        let read = series.read();
        assert_eq!(read.parts[1].hits, 3);
        assert_eq!(read.parts[0].wait_ms, 1.5);
        assert_eq!(read.depth, 4);
        assert_eq!(reg.counter("w.b.hits").get(), 3);
        assert_eq!(reg.gauge("w.a.wait_us").get(), 1_500);
        assert_eq!(reg.gauge("w.depth").get(), 4);
    }
}
