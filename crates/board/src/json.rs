//! JSON conversions for the enums whose layout needs hand-written
//! external tagging, plus whole-board round-trip tests. The per-struct
//! conversions live next to each type (they need private-field access).

use crate::memory::BankAttachment;
use crate::resources::ResourceError;
use rcarb_json::{decode_fields, Decoder, FromJson, Json, JsonError, ToJson};

impl ToJson for BankAttachment {
    fn to_json(&self) -> Json {
        match self {
            BankAttachment::Local(pe) => Json::Obj(vec![("Local".to_owned(), pe.to_json())]),
            BankAttachment::Shared => Json::Str("Shared".to_owned()),
        }
    }
}

impl FromJson for BankAttachment {
    #[allow(non_snake_case)]
    fn from_json(d: &mut Decoder<'_>) -> Result<Self, JsonError> {
        match d.peek() {
            Some(b'"') if d.string()? == "Shared" => Ok(BankAttachment::Shared),
            Some(b'{') => Ok(decode_fields!(d, { Local } => BankAttachment::Local(Local))),
            _ => Err(JsonError::shape("expected a BankAttachment")),
        }
    }
}

impl ToJson for ResourceError {
    fn to_json(&self) -> Json {
        let (tag, pairs) = match *self {
            ResourceError::ClbsExhausted {
                pe,
                requested,
                free,
            } => (
                "ClbsExhausted",
                vec![
                    ("pe".to_owned(), pe.to_json()),
                    ("requested".to_owned(), requested.to_json()),
                    ("free".to_owned(), free.to_json()),
                ],
            ),
            ResourceError::BankExhausted {
                bank,
                requested,
                free,
            } => (
                "BankExhausted",
                vec![
                    ("bank".to_owned(), bank.to_json()),
                    ("requested".to_owned(), requested.to_json()),
                    ("free".to_owned(), free.to_json()),
                ],
            ),
            ResourceError::PinsExhausted {
                pe,
                requested,
                free,
            } => (
                "PinsExhausted",
                vec![
                    ("pe".to_owned(), pe.to_json()),
                    ("requested".to_owned(), requested.to_json()),
                    ("free".to_owned(), free.to_json()),
                ],
            ),
        };
        Json::Obj(vec![(tag.to_owned(), Json::Obj(pairs))])
    }
}

impl FromJson for ResourceError {
    fn from_json(d: &mut Decoder<'_>) -> Result<Self, JsonError> {
        d.object("expected a ResourceError object")?;
        let tag = d
            .next_key()?
            .ok_or_else(|| JsonError::shape("expected a tagged ResourceError"))?;
        let err = match &*tag {
            "ClbsExhausted" => decode_fields!(d, { requested, free, pe } => {
                ResourceError::ClbsExhausted { pe, requested, free }
            }),
            "BankExhausted" => decode_fields!(d, { requested, free, bank } => {
                ResourceError::BankExhausted { bank, requested, free }
            }),
            "PinsExhausted" => decode_fields!(d, { requested, free, pe } => {
                ResourceError::PinsExhausted { pe, requested, free }
            }),
            other => {
                return Err(JsonError::shape(format!(
                    "unknown ResourceError variant `{other}`"
                )))
            }
        };
        // The first member is the error; any others are ignored.
        while d.next_key()?.is_some() {
            d.skip()?;
        }
        Ok(err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::board::PeId;
    use crate::memory::BankId;
    use crate::presets;

    #[test]
    fn attachment_layouts() {
        let local = BankAttachment::Local(PeId::new(3));
        assert_eq!(rcarb_json::to_string(&local), r#"{"Local":3}"#);
        assert_eq!(
            rcarb_json::to_string(&BankAttachment::Shared),
            r#""Shared""#
        );
        for a in [local, BankAttachment::Shared] {
            let back: BankAttachment = rcarb_json::from_str(&rcarb_json::to_string(&a)).unwrap();
            assert_eq!(a, back);
        }
    }

    #[test]
    fn resource_error_round_trips() {
        let e = ResourceError::BankExhausted {
            bank: BankId::new(1),
            requested: 9,
            free: 2,
        };
        let back: ResourceError = rcarb_json::from_str(&rcarb_json::to_string(&e)).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn board_document_uses_field_names() {
        let doc = rcarb_json::to_value(&presets::wildforce());
        assert_eq!(doc["name"], "Wildforce");
        assert_eq!(doc["pes"][0]["device"]["name"], "XC4013E");
        assert_eq!(doc["pes"][0]["device"]["speed_grade"], "Minus3");
        assert_eq!(doc["banks"][0]["attachment"]["Local"].as_u64(), Some(0));
    }
}
