//! JSON conversions for the IR enums, using externally tagged layouts:
//! newtype variants carry their payload directly (`{"Lit": 4}`), tuple
//! variants carry an array (`{"Bin": [op, lhs, rhs]}`), struct variants
//! carry an object keyed by field name.

use crate::id::VarId;
use crate::program::{BinOp, Expr, Op};
use rcarb_json::{decode_fields, Decoder, FromJson, Json, JsonError, ToJson};

fn variant(tag: &str, body: Json) -> Json {
    Json::Obj(vec![(tag.to_owned(), body)])
}

fn fields(pairs: Vec<(&str, Json)>) -> Json {
    Json::Obj(pairs.into_iter().map(|(k, v)| (k.to_owned(), v)).collect())
}

/// The shape errors of an externally tagged enum value.
const NOT_OBJECT: &str = "expected an externally tagged enum object";
const NOT_ONE_TAG: &str = "expected exactly one enum variant tag";

impl ToJson for Expr {
    fn to_json(&self) -> Json {
        match self {
            Expr::Lit(v) => variant("Lit", v.to_json()),
            Expr::Var(id) => variant("Var", id.to_json()),
            Expr::Bin(op, a, b) => variant(
                "Bin",
                Json::Arr(vec![op.to_json(), a.to_json(), b.to_json()]),
            ),
        }
    }
}

impl FromJson for Expr {
    fn from_json(d: &mut Decoder<'_>) -> Result<Self, JsonError> {
        d.variant(NOT_OBJECT, NOT_ONE_TAG, |d, tag| match tag {
            "Lit" => u64::from_json(d).map(Expr::Lit),
            "Var" => VarId::from_json(d).map(Expr::Var),
            "Bin" => {
                const TRIPLE: &str = "expected a [op, lhs, rhs] triple";
                let element = |d: &mut Decoder<'_>| {
                    if d.next_element()? {
                        Ok(())
                    } else {
                        Err(JsonError::shape(TRIPLE))
                    }
                };
                d.array(TRIPLE)?;
                element(d)?;
                let op = BinOp::from_json(d)?;
                element(d)?;
                let a = Expr::from_json(d)?;
                element(d)?;
                let b = Expr::from_json(d)?;
                if d.next_element()? {
                    return Err(JsonError::shape(TRIPLE));
                }
                Ok(Expr::Bin(op, Box::new(a), Box::new(b)))
            }
            other => Err(JsonError::shape(format!("unknown Expr variant `{other}`"))),
        })
    }
}

impl ToJson for Op {
    fn to_json(&self) -> Json {
        match self {
            Op::Set { dst, value } => variant(
                "Set",
                fields(vec![("dst", dst.to_json()), ("value", value.to_json())]),
            ),
            Op::Compute { cycles } => {
                variant("Compute", fields(vec![("cycles", cycles.to_json())]))
            }
            Op::MemRead { segment, addr, dst } => variant(
                "MemRead",
                fields(vec![
                    ("segment", segment.to_json()),
                    ("addr", addr.to_json()),
                    ("dst", dst.to_json()),
                ]),
            ),
            Op::MemWrite {
                segment,
                addr,
                value,
            } => variant(
                "MemWrite",
                fields(vec![
                    ("segment", segment.to_json()),
                    ("addr", addr.to_json()),
                    ("value", value.to_json()),
                ]),
            ),
            Op::Send { channel, value } => variant(
                "Send",
                fields(vec![
                    ("channel", channel.to_json()),
                    ("value", value.to_json()),
                ]),
            ),
            Op::Recv { channel, dst } => variant(
                "Recv",
                fields(vec![("channel", channel.to_json()), ("dst", dst.to_json())]),
            ),
            Op::Repeat { times, body } => variant(
                "Repeat",
                fields(vec![("times", times.to_json()), ("body", body.to_json())]),
            ),
            Op::IfNonZero {
                cond,
                then_ops,
                else_ops,
            } => variant(
                "IfNonZero",
                fields(vec![
                    ("cond", cond.to_json()),
                    ("then_ops", then_ops.to_json()),
                    ("else_ops", else_ops.to_json()),
                ]),
            ),
            Op::ReqAssert { arbiter } => {
                variant("ReqAssert", fields(vec![("arbiter", arbiter.to_json())]))
            }
            Op::AwaitGrant { arbiter } => {
                variant("AwaitGrant", fields(vec![("arbiter", arbiter.to_json())]))
            }
            Op::AwaitGrantFor {
                arbiter,
                cycles,
                dst,
            } => variant(
                "AwaitGrantFor",
                fields(vec![
                    ("arbiter", arbiter.to_json()),
                    ("cycles", cycles.to_json()),
                    ("dst", dst.to_json()),
                ]),
            ),
            Op::ReqDeassert { arbiter } => {
                variant("ReqDeassert", fields(vec![("arbiter", arbiter.to_json())]))
            }
        }
    }
}

impl FromJson for Op {
    fn from_json(d: &mut Decoder<'_>) -> Result<Self, JsonError> {
        d.variant(NOT_OBJECT, NOT_ONE_TAG, |d, tag| {
            Ok(match tag {
                "Set" => decode_fields!(d, { dst, value } => Op::Set { dst, value }),
                "Compute" => decode_fields!(d, { cycles } => Op::Compute { cycles }),
                "MemRead" => decode_fields!(d, { segment, addr, dst } => {
                    Op::MemRead { segment, addr, dst }
                }),
                "MemWrite" => decode_fields!(d, { segment, addr, value } => {
                    Op::MemWrite { segment, addr, value }
                }),
                "Send" => decode_fields!(d, { channel, value } => Op::Send { channel, value }),
                "Recv" => decode_fields!(d, { channel, dst } => Op::Recv { channel, dst }),
                "Repeat" => decode_fields!(d, { times, body } => Op::Repeat { times, body }),
                "IfNonZero" => decode_fields!(d, { cond, then_ops, else_ops } => {
                    Op::IfNonZero { cond, then_ops, else_ops }
                }),
                "ReqAssert" => decode_fields!(d, { arbiter } => Op::ReqAssert { arbiter }),
                "AwaitGrant" => decode_fields!(d, { arbiter } => Op::AwaitGrant { arbiter }),
                "AwaitGrantFor" => decode_fields!(d, { arbiter, cycles, dst } => {
                    Op::AwaitGrantFor { arbiter, cycles, dst }
                }),
                "ReqDeassert" => decode_fields!(d, { arbiter } => Op::ReqDeassert { arbiter }),
                other => return Err(JsonError::shape(format!("unknown Op variant `{other}`"))),
            })
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::{ArbiterId, ChannelId, SegmentId};
    use crate::program::Program;

    #[test]
    fn expr_layouts() {
        let e = Expr::bin(BinOp::Add, Expr::lit(1), Expr::var(VarId::new(2)));
        assert_eq!(
            rcarb_json::to_string(&e),
            r#"{"Bin":["Add",{"Lit":1},{"Var":2}]}"#
        );
        let back: Expr = rcarb_json::from_str(&rcarb_json::to_string(&e)).unwrap();
        assert_eq!(e, back);
    }

    #[test]
    fn every_op_round_trips() {
        let seg = SegmentId::new(0);
        let ch = ChannelId::new(1);
        let arb = ArbiterId::new(2);
        let v = VarId::new(0);
        let ops = vec![
            Op::Set {
                dst: v,
                value: Expr::lit(4),
            },
            Op::Compute { cycles: 7 },
            Op::MemRead {
                segment: seg,
                addr: Expr::lit(0),
                dst: v,
            },
            Op::MemWrite {
                segment: seg,
                addr: Expr::lit(1),
                value: Expr::var(v),
            },
            Op::Send {
                channel: ch,
                value: Expr::var(v),
            },
            Op::Recv {
                channel: ch,
                dst: v,
            },
            Op::Repeat {
                times: 3,
                body: vec![Op::Compute { cycles: 1 }],
            },
            Op::IfNonZero {
                cond: Expr::var(v),
                then_ops: vec![Op::Compute { cycles: 1 }],
                else_ops: vec![],
            },
            Op::ReqAssert { arbiter: arb },
            Op::AwaitGrant { arbiter: arb },
            Op::AwaitGrantFor {
                arbiter: arb,
                cycles: 16,
                dst: v,
            },
            Op::ReqDeassert { arbiter: arb },
        ];
        for op in &ops {
            let back: Op = rcarb_json::from_str(&rcarb_json::to_string(op)).unwrap();
            assert_eq!(*op, back);
        }
        let p = Program::from_ops(ops);
        let back: Program = rcarb_json::from_str(&rcarb_json::to_string(&p)).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn malformed_ops_are_rejected() {
        for bad in [
            r#"{"Nope": {}}"#,
            r#"{"Set": {"dst": 0}}"#,
            r#"{"Bin": [1, 2]}"#,
            r#"{"Set": {"dst": 0, "value": {"Lit": 1}}, "Extra": {}}"#,
        ] {
            assert!(rcarb_json::from_str::<Op>(bad).is_err(), "accepted {bad}");
        }
    }

    /// The typed decoder recurses once per `Bin` level; the depth cap
    /// bounds that recursion before it can exhaust a thread's stack.
    #[test]
    fn expressions_decode_up_to_the_nesting_cap() {
        // Each `Bin` level is an object holding an array.
        let nest = |levels: usize| {
            (0..levels).fold(r#"{"Lit":1}"#.to_owned(), |inner, _| {
                format!(r#"{{"Bin":["Add",{inner},{{"Lit":2}}]}}"#)
            })
        };
        let deepest = nest((rcarb_json::MAX_DEPTH - 2) / 2);
        assert!(rcarb_json::from_str::<Expr>(&deepest).is_ok());
        let err = rcarb_json::from_str::<Expr>(&nest(rcarb_json::MAX_DEPTH / 2)).unwrap_err();
        assert!(err.to_string().contains("nesting deeper than"), "{err}");
    }
}
