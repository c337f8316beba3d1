//! The [`ToJson`]/[`FromJson`] conversion traits and primitive impls.

use crate::decode::{Decoder, JsonError};
use crate::value::{Json, Number};

/// Serializes a value to a [`Json`] document.
pub trait ToJson {
    /// Builds the document.
    fn to_json(&self) -> Json;
}

/// Deserializes a value straight from JSON text.
pub trait FromJson: Sized {
    /// Reads one value off the decoder, leaving it just past the value.
    ///
    /// # Errors
    ///
    /// Returns [`JsonError`] when the text is malformed or the value has
    /// the wrong shape.
    fn from_json(d: &mut Decoder<'_>) -> Result<Self, JsonError>;
}

/// Reads a number, or fails with the shape error `expected` when the
/// next value is not one.
fn number(d: &mut Decoder<'_>, expected: &str) -> Result<Number, JsonError> {
    match d.peek() {
        Some(b'-' | b'0'..=b'9') => d.number(),
        _ => Err(JsonError::shape(expected)),
    }
}

macro_rules! impl_json_uint {
    ($($ty:ty),+) => {
        $(
            impl ToJson for $ty {
                fn to_json(&self) -> Json {
                    Json::Num(Number::Uint(*self as u64))
                }
            }
            impl FromJson for $ty {
                fn from_json(d: &mut Decoder<'_>) -> Result<Self, JsonError> {
                    const EXPECTED: &str = concat!("expected a ", stringify!($ty));
                    number(d, EXPECTED)?
                        .as_u64()
                        .and_then(|u| <$ty>::try_from(u).ok())
                        .ok_or_else(|| JsonError::shape(EXPECTED))
                }
            }
        )+
    };
}

impl_json_uint!(u8, u16, u32, u64, usize);

macro_rules! impl_json_int {
    ($($ty:ty),+) => {
        $(
            impl ToJson for $ty {
                fn to_json(&self) -> Json {
                    Json::from(*self as i64)
                }
            }
            impl FromJson for $ty {
                fn from_json(d: &mut Decoder<'_>) -> Result<Self, JsonError> {
                    const EXPECTED: &str = concat!("expected an ", stringify!($ty));
                    number(d, EXPECTED)?
                        .as_i64()
                        .and_then(|i| <$ty>::try_from(i).ok())
                        .ok_or_else(|| JsonError::shape(EXPECTED))
                }
            }
        )+
    };
}

impl_json_int!(i8, i16, i32, i64);

impl ToJson for f64 {
    fn to_json(&self) -> Json {
        Json::Num(Number::Float(*self))
    }
}

impl FromJson for f64 {
    fn from_json(d: &mut Decoder<'_>) -> Result<Self, JsonError> {
        number(d, "expected a number").map(Number::as_f64)
    }
}

impl ToJson for bool {
    fn to_json(&self) -> Json {
        Json::Bool(*self)
    }
}

impl FromJson for bool {
    fn from_json(d: &mut Decoder<'_>) -> Result<Self, JsonError> {
        match d.peek() {
            Some(b't' | b'f') => d.bool(),
            _ => Err(JsonError::shape("expected a boolean")),
        }
    }
}

impl ToJson for str {
    fn to_json(&self) -> Json {
        Json::Str(self.to_owned())
    }
}

impl ToJson for String {
    fn to_json(&self) -> Json {
        Json::Str(self.clone())
    }
}

impl FromJson for String {
    fn from_json(d: &mut Decoder<'_>) -> Result<Self, JsonError> {
        match d.peek() {
            Some(b'"') => d.string().map(String::from),
            _ => Err(JsonError::shape("expected a string")),
        }
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn to_json(&self) -> Json {
        Json::Arr(self.iter().map(ToJson::to_json).collect())
    }
}

impl<T: FromJson> FromJson for Vec<T> {
    fn from_json(d: &mut Decoder<'_>) -> Result<Self, JsonError> {
        d.array("expected an array")?;
        let mut items = Vec::new();
        while d.next_element()? {
            items.push(T::from_json(d)?);
        }
        Ok(items)
    }
}

impl<T: ToJson> ToJson for Option<T> {
    fn to_json(&self) -> Json {
        match self {
            Some(x) => x.to_json(),
            None => Json::Null,
        }
    }
}

impl<T: FromJson> FromJson for Option<T> {
    fn from_json(d: &mut Decoder<'_>) -> Result<Self, JsonError> {
        if d.peek() == Some(b'n') {
            d.null().map(|()| None)
        } else {
            T::from_json(d).map(Some)
        }
    }
}

impl<T: ToJson + ?Sized> ToJson for Box<T> {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<T: FromJson> FromJson for Box<T> {
    fn from_json(d: &mut Decoder<'_>) -> Result<Self, JsonError> {
        T::from_json(d).map(Box::new)
    }
}

impl<T: ToJson + ?Sized> ToJson for &T {
    fn to_json(&self) -> Json {
        (**self).to_json()
    }
}

impl<A: ToJson, B: ToJson> ToJson for (A, B) {
    fn to_json(&self) -> Json {
        Json::Arr(vec![self.0.to_json(), self.1.to_json()])
    }
}

impl<A: FromJson, B: FromJson> FromJson for (A, B) {
    fn from_json(d: &mut Decoder<'_>) -> Result<Self, JsonError> {
        const PAIR: &str = "expected a two-element array";
        let element = |d: &mut Decoder<'_>| {
            if d.next_element()? {
                Ok(())
            } else {
                Err(JsonError::shape(PAIR))
            }
        };
        d.array(PAIR)?;
        element(d)?;
        let a = A::from_json(d)?;
        element(d)?;
        let b = B::from_json(d)?;
        if d.next_element()? {
            Err(JsonError::shape(PAIR))
        } else {
            Ok((a, b))
        }
    }
}

impl ToJson for Json {
    fn to_json(&self) -> Json {
        self.clone()
    }
}

/// The tree builder: any value, as a [`Json`] document.
impl FromJson for Json {
    fn from_json(d: &mut Decoder<'_>) -> Result<Self, JsonError> {
        Ok(match d.peek() {
            Some(b'n') => {
                d.null()?;
                Json::Null
            }
            Some(b't' | b'f') => Json::Bool(d.bool()?),
            Some(b'"') => Json::Str(d.string()?.into_owned()),
            Some(b'-' | b'0'..=b'9') => Json::Num(d.number()?),
            Some(b'[') => {
                d.begin_array()?;
                let mut items = Vec::new();
                while d.next_element()? {
                    items.push(Json::from_json(d)?);
                }
                Json::Arr(items)
            }
            Some(b'{') => {
                d.begin_object()?;
                let mut pairs = Vec::new();
                while let Some(key) = d.next_key()? {
                    pairs.push((key.into_owned(), Json::from_json(d)?));
                }
                Json::Obj(pairs)
            }
            _ => return Err(d.not_a_value()),
        })
    }
}
