#![warn(missing_docs)]

//! # rcarb-json — dependency-free JSON for design data
//!
//! The repository's portability story ("a design is plain data") rests on
//! serializing boards and taskgraphs to JSON and back. This crate provides
//! the small JSON substrate that story needs — a value model ([`Json`]),
//! compact and pretty printers, a strict pull [`Decoder`], and the
//! [`ToJson`]/[`FromJson`] conversion traits — with no dependencies, so
//! the workspace builds without any registry access.
//!
//! Decoding reads typed values straight from the text: each [`FromJson`]
//! impl pulls its scalars off the [`Decoder`] and steps through objects
//! and arrays itself, so no intermediate tree is built. Strings without
//! escapes are borrowed from the text, values nobody asked for are
//! skipped (and still validated), and nesting is capped at
//! [`MAX_DEPTH`]. The tree is one more [`FromJson`] impl:
//! [`Json::parse`] is `from_str::<Json>`, and there is no other parser.
//!
//! The layout conventions mirror what a derive-based serializer would
//! produce, keeping existing documents valid:
//!
//! - structs become objects keyed by field name;
//! - newtype identifiers (e.g. `PeId(3)`) are transparent numbers;
//! - enums are externally tagged: unit variants are bare strings,
//!   data-carrying variants are single-key objects;
//! - tuples become fixed-length arrays, `Option` uses `null` for `None`.

mod convert;
mod decode;
mod print;
mod value;

pub use convert::{FromJson, ToJson};
pub use decode::{Decoder, JsonError, MAX_DEPTH};
pub use value::{Json, Number};

/// Serializes a value to a compact JSON string.
pub fn to_string<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_string()
}

/// Serializes a value to an indented JSON string.
pub fn to_string_pretty<T: ToJson + ?Sized>(value: &T) -> String {
    value.to_json().to_string_pretty()
}

/// Serializes a value to a [`Json`] document.
pub fn to_value<T: ToJson + ?Sized>(value: &T) -> Json {
    value.to_json()
}

/// Deserializes a value from a JSON string: the value, then nothing but
/// whitespace.
///
/// # Errors
///
/// Returns [`JsonError`] on malformed text or a document that does not
/// match the expected shape. When the text is malformed anywhere, the
/// error is its first syntax error, even if a shape error comes earlier
/// in the text.
pub fn from_str<T: FromJson>(text: &str) -> Result<T, JsonError> {
    let mut d = Decoder::new(text);
    T::from_json(&mut d)
        .and_then(|value| d.finish().map(|()| value))
        .map_err(|e| {
            // The error path alone re-reads the text: validating it whole
            // ranks a later syntax error ahead of an early shape error.
            let mut check = Decoder::new(text);
            check
                .skip()
                .and_then(|()| check.finish())
                .err()
                .unwrap_or(e)
        })
}

/// Decodes an object into the named fields and evaluates `$build` with
/// them bound, as `decode_fields!(d, { a, b: u64, c = None } => Ty { a, b, c })`.
///
/// Keys are read in document order: the first occurrence of a field
/// wins, and unknown keys and later duplicates are skipped (but still
/// validated). A field is decoded as its annotated type, or as the type
/// `$build` infers for it. A field given a default may be absent; any
/// other missing field is an error, reported by name in the order
/// listed, and a value that is not an object is reported against the
/// first field. Errors are returned with `?` from the enclosing
/// function.
#[macro_export]
macro_rules! decode_fields {
    (@or $field:ident) => {
        $field.ok_or_else(|| $crate::JsonError::missing_field(stringify!($field)))?
    };
    (@or $field:ident, $default:expr) => {
        $field.unwrap_or($default)
    };
    ($d:ident, {
        $($field:ident $(: $ty:ty)? $(= $default:expr)?),+ $(,)?
    } => $build:expr) => {{
        $(let mut $field $(: Option<$ty>)? = None;)+
        $d.fields([$(stringify!($field)),+][0])?;
        while let Some(key) = $d.next_key()? {
            match &*key {
                $(stringify!($field) if $field.is_none() => {
                    $field = Some($crate::FromJson::from_json($d)?);
                })+
                _ => $d.skip()?,
            }
        }
        $(let $field = $crate::decode_fields!(@or $field $(, $default)?);)+
        $build
    }};
}

/// Implements [`ToJson`]/[`FromJson`] for a struct as an object keyed by
/// field name. Must be invoked inside the struct's own crate (it accesses
/// fields directly).
#[macro_export]
macro_rules! impl_json_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::Json::Obj(vec![
                    $((stringify!($field).to_owned(), $crate::ToJson::to_json(&self.$field))),+
                ])
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(d: &mut $crate::Decoder<'_>) -> Result<Self, $crate::JsonError> {
                Ok($crate::decode_fields!(d, { $($field),+ } => Self { $($field),+ }))
            }
        }
    };
}

/// Implements [`ToJson`]/[`FromJson`] for a fieldless enum as a bare
/// variant-name string (external tagging).
#[macro_export]
macro_rules! impl_json_unit_enum {
    ($ty:ident { $($variant:ident),+ $(,)? }) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                match self {
                    $($ty::$variant => $crate::Json::Str(stringify!($variant).to_owned())),+
                }
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(d: &mut $crate::Decoder<'_>) -> Result<Self, $crate::JsonError> {
                const EXPECTED: &str = concat!("expected a ", stringify!($ty), " variant name");
                if d.peek() != Some(b'"') {
                    return Err($crate::JsonError::shape(EXPECTED));
                }
                match &*d.string()? {
                    $(stringify!($variant) => Ok($ty::$variant),)+
                    _ => Err($crate::JsonError::shape(EXPECTED)),
                }
            }
        }
    };
}

/// Implements [`ToJson`]/[`FromJson`] for a `struct Name(Inner)` newtype
/// as its transparent inner value. Must be invoked inside the newtype's
/// own crate.
#[macro_export]
macro_rules! impl_json_newtype {
    ($ty:ident) => {
        impl $crate::ToJson for $ty {
            fn to_json(&self) -> $crate::Json {
                $crate::ToJson::to_json(&self.0)
            }
        }
        impl $crate::FromJson for $ty {
            fn from_json(d: &mut $crate::Decoder<'_>) -> Result<Self, $crate::JsonError> {
                $crate::FromJson::from_json(d).map($ty)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::borrow::Cow;

    #[test]
    fn round_trip_all_shapes() {
        let text = r#"{"a": [1, -2, 3.5, true, null], "b": {"nested": "x\n\"y\""}}"#;
        let doc = Json::parse(text).unwrap();
        let back = Json::parse(&doc.to_string()).unwrap();
        assert_eq!(doc, back);
        let pretty = Json::parse(&doc.to_string_pretty()).unwrap();
        assert_eq!(doc, pretty);
    }

    #[test]
    fn indexing_mirrors_document_paths() {
        let doc = Json::parse(r#"{"pes": [{"device": {"clbs": 576}}]}"#).unwrap();
        assert!(doc["pes"][0]["device"]["clbs"].is_u64());
        assert_eq!(doc["pes"][0]["device"]["clbs"].as_u64(), Some(576));
        assert_eq!(doc["missing"]["also missing"], Json::Null);
    }

    #[test]
    fn mutation_edits_in_place() {
        let mut doc = Json::parse(r#"{"name": "a", "words": 4}"#).unwrap();
        doc["name"] = "b".into();
        doc["words"] = (8u64).into();
        assert_eq!(doc["name"], "b");
        assert_eq!(doc["words"].as_u64(), Some(8));
    }

    #[test]
    fn malformed_documents_are_rejected() {
        for bad in ["", "{", "[1,]", "{\"a\" 1}", "tru", "\"\\q\"", "1 2"] {
            assert!(Json::parse(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn unicode_escapes_decode() {
        let doc = Json::parse(r#""\u0041\uD83D\uDE00""#).unwrap();
        assert_eq!(doc.as_str(), Some("A\u{1F600}"));
    }

    #[test]
    fn nesting_is_capped_at_max_depth() {
        let nest = |depth: usize| format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        assert!(Json::parse(&nest(MAX_DEPTH)).is_ok());
        assert!(from_str::<Vec<Json>>(&nest(MAX_DEPTH)).is_ok());
        let err = Json::parse(&nest(MAX_DEPTH + 1)).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid JSON: nesting deeper than 128 at byte 128"
        );
        // Skipped values are held to the same cap.
        let deep = format!(r#"{{"a": 1, "b": {}}}"#, "{\"c\": ".repeat(200));
        let err = from_str::<Option<u32>>(&deep).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than 128"), "{err}");
    }

    #[test]
    fn strings_borrow_unless_escaped() {
        let mut d = Decoder::new(r#" "plain" "a\tb" "#);
        assert!(matches!(d.string().unwrap(), Cow::Borrowed("plain")));
        assert!(matches!(d.string().unwrap(), Cow::Owned(s) if s == "a\tb"));
    }

    #[test]
    fn a_syntax_error_outranks_an_earlier_shape_error() {
        // The first element is the wrong type, but the text is also
        // malformed further on: the syntax error is what gets reported.
        let err = from_str::<Vec<u32>>(r#"["x", 2, ]"#).unwrap_err();
        assert_eq!(err.to_string(), "invalid JSON: expected a value at byte 9");
        let err = from_str::<Vec<u32>>(r#"["x", 2] 3"#).unwrap_err();
        assert_eq!(
            err.to_string(),
            "invalid JSON: trailing characters at byte 9"
        );
        let err = from_str::<Vec<u32>>(r#"["x", 2]"#).unwrap_err();
        assert_eq!(err.to_string(), "invalid JSON: expected a u32");
    }

    struct Pair {
        a: u32,
        b: Option<String>,
    }

    impl_json_struct!(Pair { a, b });

    #[test]
    fn struct_fields_decode_in_document_order_and_the_first_key_wins() {
        let p: Pair = from_str(r#"{"b": "x", "z": [1, {"q": null}], "a": 1, "a": "dup"}"#).unwrap();
        assert_eq!((p.a, p.b.as_deref()), (1, Some("x")));
        let err = from_str::<Pair>(r#"{"b": null}"#).err().unwrap();
        assert_eq!(err.to_string(), "invalid JSON: missing field `a`");
        let err = from_str::<Pair>("[1]").err().unwrap();
        assert_eq!(
            err.to_string(),
            "invalid JSON: expected an object with field `a`, found Arr([Num(Uint(1))])"
        );
        // Unknown members are validated even though they are skipped.
        let err = from_str::<Pair>(r#"{"a": 1, "b": null, "z": [1,]}"#)
            .err()
            .unwrap();
        assert_eq!(err.to_string(), "invalid JSON: expected a value at byte 28");
    }

    #[test]
    fn numbers_keep_their_classification() {
        let num = |text: &str| Decoder::new(text).number().unwrap();
        assert_eq!(num("0"), Number::Uint(0));
        assert_eq!(num("-0"), Number::Int(0));
        assert_eq!(
            num("9999999999999999999"),
            Number::Uint(9_999_999_999_999_999_999)
        );
        assert_eq!(num("18446744073709551615"), Number::Uint(u64::MAX));
        assert_eq!(
            num("18446744073709551616"),
            Number::Float(18_446_744_073_709_551_616.0)
        );
        assert_eq!(num("-9223372036854775808"), Number::Int(i64::MIN));
        assert_eq!(num("4.0"), Number::Float(4.0));
        assert_eq!(num("1e2"), Number::Float(100.0));
    }

    #[test]
    fn primitives_round_trip_through_traits() {
        assert_eq!(from_str::<u32>(&to_string(&7u32)).unwrap(), 7);
        assert!(from_str::<bool>(&to_string(&true)).unwrap());
        assert_eq!(
            from_str::<Vec<String>>(&to_string(&vec!["x".to_owned()])).unwrap(),
            vec!["x".to_owned()]
        );
        assert_eq!(from_str::<Option<u64>>("null").unwrap(), None);
        assert_eq!(from_str::<(u32, u32)>("[1, 2]").unwrap(), (1, 2));
        assert!(from_str::<u32>("\"seven\"").is_err());
    }
}
