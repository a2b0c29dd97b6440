//! [`json_struct!`](crate::json_struct) and [`json_enum!`](crate::json_enum):
//! both conversion impls of a mechanical protocol type from one line.

/// Implements [`ToJson`](crate::ToJson) and [`FromJson`](crate::FromJson)
/// for a struct with named fields as a plain object, keys named after the
/// fields and written in the order listed. Every field must be listed
/// (leaving one out does not compile) and must implement both traits —
/// or name, with `as`, a type whose associated `write_json(&field, out)`
/// and `read_json(reader)` stand in for them. What the decoder accepts is
/// in the [crate docs](crate#what-a-decoder-accepts).
///
/// ```
/// use oasis_json::{from_str, json_struct, to_string};
///
/// #[derive(Debug, PartialEq)]
/// struct Crr {
///     issuer: String,
///     cert_id: u64,
/// }
/// json_struct! { Crr { issuer, cert_id } }
///
/// let crr = Crr { issuer: "svc".into(), cert_id: 4 };
/// assert_eq!(to_string(&crr), r#"{"issuer":"svc","cert_id":4}"#);
/// assert_eq!(from_str::<Crr>(r#"{"cert_id":4,"x":[],"issuer":"svc"}"#).unwrap(), crr);
/// assert!(from_str::<Crr>(r#"{"issuer":"svc"}"#).is_err());
/// ```
#[macro_export]
macro_rules! json_struct {
    ($name:ident { $($field:ident $(as $codec:ty)?),+ $(,)? }) => {
        impl $crate::ToJson for $name {
            fn write_json(&self, out: &mut String) {
                let Self { $($field),+ } = self;
                $crate::__json_fields!(@write out; $($field $(as $codec)?),+);
            }
        }

        impl $crate::FromJson for $name {
            fn read_json(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::JsonError> {
                $crate::__json_fields!(@read r; [$name]; $($field $(as $codec)?),+)
            }
        }
    };
}

/// Implements [`ToJson`](crate::ToJson) and [`FromJson`](crate::FromJson)
/// for an enum in externally tagged form. Every variant must be listed,
/// in one of these shapes:
///
/// * `Variant { a, b }` ↔ `{"Variant":{"a":…,"b":…}}`, fields as in
///   [`json_struct!`](crate::json_struct);
/// * `Variant(x)` ↔ `{"Variant":…}` for a one-field tuple variant
///   (`Variant(x as Codec)` as for a field);
/// * `Variant` ↔ the bare string `"Variant"` for a unit variant;
/// * `Variant = "text"` ↔ the bare string `"text"`;
/// * `Variant = null` ↔ `{"Variant":null}` for a unit variant (any body is
///   accepted when read).
///
/// ```
/// use oasis_json::{from_str, json_enum, to_string};
///
/// #[derive(Debug, PartialEq)]
/// enum Reply {
///     Revoked { was_active: bool },
///     Used(Vec<u64>),
///     Pong,
/// }
/// json_enum! { Reply { Revoked { was_active }, Used(ids), Pong } }
///
/// assert_eq!(to_string(&Reply::Pong), r#""Pong""#);
/// assert_eq!(to_string(&Reply::Used(vec![1, 2])), r#"{"Used":[1,2]}"#);
/// let revoked = r#"{"Revoked":{"was_active":true}}"#;
/// assert_eq!(from_str::<Reply>(revoked).unwrap(), Reply::Revoked { was_active: true });
/// assert!(from_str::<Reply>(r#"{"Pong":null}"#).is_err());
/// ```
#[macro_export]
macro_rules! json_enum {
    ($name:ident { $(
        $variant:ident
        $({ $($field:ident $(as $codec:ty)?),+ $(,)? })?
        $(( $inner:ident $(as $inner_codec:ty)? ))?
        $(= $text:tt)?
    ),+ $(,)? }) => {
        impl $crate::ToJson for $name {
            fn write_json(&self, out: &mut String) {
                match self {$(
                    $name::$variant { $($($field),+)? $(0: $inner)? } => $crate::__json_variant!(
                        @write out, $variant
                        $({ $($field $(as $codec)?),+ })?
                        $(( $inner $(as $inner_codec)? ))? $(= $text)?
                    ),
                )+}
            }
        }

        impl $crate::FromJson for $name {
            fn read_json(r: &mut $crate::Reader<'_>) -> Result<Self, $crate::JsonError> {
                r.tagged(stringify!($name), |tag, body| match (tag, body) {
                    $($crate::__json_variant!(
                        @pattern r, $variant $({ $($field),+ })? $(( $inner ))? $(= $text)?
                    ) => $crate::__json_variant!(
                        @read r, $name::$variant
                        $({ $($field $(as $codec)?),+ })?
                        $(( $inner $(as $inner_codec)? ))? $(= $text)?
                    ),)+
                    // No such variant, or one of the other form.
                    _ => Err($crate::JsonError::unknown_variant(stringify!($name), tag)),
                })
            }
        }
    };
}

/// The object body shared by structs and struct variants.
#[doc(hidden)]
#[macro_export]
macro_rules! __json_fields {
    (@write $out:ident; $first:ident $(as $first_codec:ty)? $(, $field:ident $(as $codec:ty)?)*) => {
        $out.push_str(concat!("{\"", stringify!($first), "\":"));
        $crate::__json_fields!(@write_value $out, $first $(, $first_codec)?);
        $(
            $out.push_str(concat!(",\"", stringify!($field), "\":"));
            $crate::__json_fields!(@write_value $out, $field $(, $codec)?);
        )*
        $out.push('}');
    };
    (@write_value $out:ident, $value:ident) => {
        $crate::ToJson::write_json($value, $out)
    };
    (@write_value $out:ident, $value:ident, $codec:ty) => {
        <$codec>::write_json($value, $out)
    };
    (@read $r:ident; [$($ctor:tt)+]; $($field:ident $(as $codec:ty)?),+) => {{
        $(let mut $field = None;)+
        $r.object(|r, key| {
            match key {
                // The first occurrence of a key is the field.
                $(stringify!($field) if $field.is_none() => {
                    $field = Some($crate::__json_fields!(@read_value r $(, $codec)?)?);
                })+
                _ => r.skip()?,
            }
            Ok(())
        })?;
        Ok($($ctor)+ {$(
            $field: $field.ok_or_else(|| $crate::JsonError::missing(stringify!($field)))?,
        )+})
    }};
    (@read_value $r:ident) => {
        $crate::FromJson::read_json($r)
    };
    (@read_value $r:ident, $codec:ty) => {
        <$codec>::read_json($r)
    };
}

/// One variant of [`json_enum!`](crate::json_enum), by shape.
#[doc(hidden)]
#[macro_export]
macro_rules! __json_variant {
    (@write $out:ident, $variant:ident) => {
        $out.push_str(concat!("\"", stringify!($variant), "\""))
    };
    (@write $out:ident, $variant:ident = null) => {
        $out.push_str(concat!("{\"", stringify!($variant), "\":null}"))
    };
    (@write $out:ident, $variant:ident = $text:literal) => {
        $crate::write_str($out, $text)
    };
    (@write $out:ident, $variant:ident ( $inner:ident $(as $codec:ty)? )) => {{
        $out.push_str(concat!("{\"", stringify!($variant), "\":"));
        $crate::__json_fields!(@write_value $out, $inner $(, $codec)?);
        $out.push('}');
    }};
    (@write $out:ident, $variant:ident { $($fields:tt)+ }) => {{
        $out.push_str(concat!("{\"", stringify!($variant), "\":"));
        $crate::__json_fields!(@write $out; $($fields)+);
        $out.push('}');
    }};

    // `(tag, body)` as `Reader::tagged` hands them over.
    (@pattern $r:ident, $variant:ident) => {
        (stringify!($variant), None)
    };
    (@pattern $r:ident, $variant:ident = null) => {
        (stringify!($variant), Some($r))
    };
    (@pattern $r:ident, $variant:ident = $text:literal) => {
        ($text, None)
    };
    (@pattern $r:ident, $variant:ident $shape:tt) => {
        (stringify!($variant), Some($r))
    };

    (@read $r:ident, $name:ident :: $variant:ident) => {
        Ok($name::$variant)
    };
    (@read $r:ident, $name:ident :: $variant:ident = null) => {
        $r.skip().map(|()| $name::$variant)
    };
    (@read $r:ident, $name:ident :: $variant:ident = $text:literal) => {
        Ok($name::$variant)
    };
    (@read $r:ident, $name:ident :: $variant:ident ( $inner:ident $(as $codec:ty)? )) => {
        $crate::__json_fields!(@read_value $r $(, $codec)?).map($name::$variant)
    };
    (@read $r:ident, $name:ident :: $variant:ident { $($fields:tt)+ }) => {
        $crate::__json_fields!(@read $r; [$name::$variant]; $($fields)+)
    };
}
