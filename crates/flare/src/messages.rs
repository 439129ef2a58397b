//! The client/server message protocol and its wire encodings.

use crate::codec::EncodedWeights;
use crate::dxo::{DxoKind, WeightTensor, Weights};
use crate::wire::{WireDecode, WireEncode, WireReader};
use crate::FlareError;
use std::collections::BTreeMap;

/// Messages sent from a client to the server.
#[derive(Clone, Debug, PartialEq)]
pub enum ClientMessage {
    /// Registration with the provisioned token (sent in the clear, before
    /// the encrypted session exists — mirrors NVFlare's join flow in
    /// Fig. 3: "New client site-1@… joined. Sent token: …").
    Register {
        /// Site name from the provision package.
        site: String,
        /// Registration token from the provision package.
        token: String,
        /// Client's ephemeral Diffie–Hellman public value.
        dh_public: u64,
        /// Canonical wire-codec spec the client asks for (see
        /// [`crate::codec::CodecSpec::parse`]); `raw` for plain weights.
        codec: String,
    },
    /// A local training result for a round.
    Submit {
        /// Round the update belongs to.
        round: u32,
        /// Most recent downlink payload id this client reconstructed
        /// (the server's delta base for future downlinks), or
        /// [`crate::codec::NO_BASE`].
        ack: u32,
        /// What the weights are (full weights or a diff).
        kind: DxoKind,
        /// Training-set size for weighted FedAvg.
        n_examples: u64,
        /// Scalar metrics (train loss etc.).
        metrics: BTreeMap<String, f64>,
        /// The update's weights.
        payload: Payload,
    },
    /// Result of validating the broadcast global model locally.
    ValidateReport {
        /// Round validated.
        round: u32,
        /// Metric value (top-1 accuracy).
        metric: f64,
        /// Most recent downlink payload id this client reconstructed,
        /// or [`crate::codec::NO_BASE`].
        ack: u32,
    },
    /// Graceful disconnect.
    Bye {
        /// Site name.
        site: String,
    },
    /// Keepalive sent while a client is idle (e.g. waiting out a recv
    /// retry); refreshes the server's liveness table for the site.
    Heartbeat {
        /// Site name.
        site: String,
    },
    /// A pre-aggregated update from an interior tree-aggregator node: one
    /// weighted partial FedAvg over the node's shard of sites, plus the
    /// per-leaf bookkeeping the root needs for quorum and round summaries
    /// (see [`crate::relay::AggregatorNode`]).
    SubmitShard {
        /// Round the shard belongs to.
        round: u32,
        /// Most recent downlink payload id this node reconstructed, or
        /// [`crate::codec::NO_BASE`].
        ack: u32,
        /// Combined effective example count of the shard (the upstream
        /// FedAvg weight).
        n_examples: u64,
        /// Leaf sites whose updates are folded into this shard, with
        /// their training metrics.
        sites: Vec<(String, std::collections::BTreeMap<String, f64>)>,
        /// Leaf sites this node expected but did not hear from.
        dropped: Vec<String>,
        /// The partial-aggregate weights.
        payload: Payload,
    },
    /// Per-leaf validation metrics relayed by an interior tree node
    /// (counterpart of [`ClientMessage::ValidateReport`] for a shard).
    ValidateShard {
        /// Round validated.
        round: u32,
        /// Most recent downlink payload id this node reconstructed, or
        /// [`crate::codec::NO_BASE`].
        ack: u32,
        /// `(leaf site, metric)` reports gathered below this node.
        reports: Vec<(String, f64)>,
    },
    /// Announces which leaf sites live below this client (sent by
    /// interior tree nodes right after registration). A server that
    /// never receives one treats the client as a single leaf.
    AnnounceLeaves {
        /// Leaf site names below this client, sorted.
        sites: Vec<String>,
    },
}

/// The weights of a weight-bearing exchange (`Train`, `Validate`,
/// `Submit`, `SubmitShard`).
#[derive(Clone, Debug, PartialEq)]
pub enum Payload {
    /// Plain full-precision weights. No CRC trailer: the transport MAC
    /// already authenticates the frame.
    Raw(Weights),
    /// Weights encoded with the codec agreed at registration.
    Encoded(EncodedWeights),
}

impl WireEncode for Payload {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            Payload::Raw(w) => {
                0u8.encode(out);
                w.encode(out);
            }
            Payload::Encoded(enc) => {
                1u8.encode(out);
                enc.encode(out);
            }
        }
    }
}

impl WireDecode for Payload {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, FlareError> {
        match u8::decode(r)? {
            0 => Ok(Payload::Raw(BTreeMap::decode(r)?)),
            1 => Ok(Payload::Encoded(EncodedWeights::decode(r)?)),
            b => Err(FlareError::Codec(format!("invalid Payload tag {b}"))),
        }
    }
}

// The wire layer has no generic tuple impls; shard site lists are encoded
// element-wise.
fn encode_pairs<A: WireEncode, B: WireEncode>(pairs: &[(A, B)], out: &mut Vec<u8>) {
    pairs.len().encode(out);
    for (a, b) in pairs {
        a.encode(out);
        b.encode(out);
    }
}

fn decode_pairs<A: WireDecode, B: WireDecode>(
    r: &mut WireReader<'_>,
) -> Result<Vec<(A, B)>, FlareError> {
    let n = usize::decode(r)?;
    let mut out = Vec::with_capacity(n.min(1 << 16));
    for _ in 0..n {
        out.push((A::decode(r)?, B::decode(r)?));
    }
    Ok(out)
}

/// Messages sent from the server to a client.
#[derive(Clone, Debug, PartialEq)]
pub enum ServerMessage {
    /// Reply to [`ClientMessage::Register`].
    RegisterAck {
        /// Whether the registration was accepted.
        accepted: bool,
        /// Session identifier (the "Token: …" line of Fig. 3).
        session: String,
        /// Server's ephemeral Diffie–Hellman public value.
        dh_public: u64,
        /// Canonical wire-codec spec the session uses (`raw` for plain
        /// weights).
        codec: String,
    },
    /// A task assignment.
    Task(TaskAssignment),
}

/// The unit of work the ScatterAndGather controller assigns.
#[derive(Clone, Debug, PartialEq)]
pub enum TaskAssignment {
    /// Train locally starting from the payload's weights.
    Train {
        /// Current round (0-based).
        round: u32,
        /// Total rounds `E`.
        total_rounds: u32,
        /// Global model weights.
        payload: Payload,
    },
    /// Validate the payload's weights locally and report the metric.
    Validate {
        /// Round being validated.
        round: u32,
        /// Global model weights.
        payload: Payload,
    },
    /// Workflow finished; disconnect.
    Finish,
}

impl TaskAssignment {
    /// The task's weights, if it carries any.
    pub fn payload(&self) -> Option<&Payload> {
        match self {
            TaskAssignment::Train { payload, .. } | TaskAssignment::Validate { payload, .. } => {
                Some(payload)
            }
            TaskAssignment::Finish => None,
        }
    }

    /// The same task carrying `payload` instead (`Finish` stays as is).
    pub fn with_payload(&self, payload: Payload) -> TaskAssignment {
        match *self {
            TaskAssignment::Train {
                round,
                total_rounds,
                ..
            } => TaskAssignment::Train {
                round,
                total_rounds,
                payload,
            },
            TaskAssignment::Validate { round, .. } => TaskAssignment::Validate { round, payload },
            TaskAssignment::Finish => TaskAssignment::Finish,
        }
    }
}

// ---------------------------------------------------------------------
// Wire encodings
// ---------------------------------------------------------------------

impl WireEncode for WeightTensor {
    fn encode(&self, out: &mut Vec<u8>) {
        self.dims.encode(out);
        self.data.encode(out);
    }
}

impl WireDecode for WeightTensor {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, FlareError> {
        let dims: Vec<usize> = Vec::decode(r)?;
        let data: Vec<f32> = Vec::decode(r)?;
        // Checked: the dims are untrusted and may overflow when multiplied.
        let expect = dims.iter().try_fold(1usize, |n, &d| n.checked_mul(d));
        if expect != Some(data.len()) {
            return Err(FlareError::Codec(format!(
                "weight tensor dims {dims:?} disagree with {} data values",
                data.len()
            )));
        }
        Ok(WeightTensor { dims, data })
    }
}

impl WireEncode for DxoKind {
    fn encode(&self, out: &mut Vec<u8>) {
        let b: u8 = match self {
            DxoKind::Weights => 0,
            DxoKind::WeightDiff => 1,
            DxoKind::Metrics => 2,
        };
        b.encode(out);
    }
}

impl WireDecode for DxoKind {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, FlareError> {
        match u8::decode(r)? {
            0 => Ok(DxoKind::Weights),
            1 => Ok(DxoKind::WeightDiff),
            2 => Ok(DxoKind::Metrics),
            b => Err(FlareError::Codec(format!("invalid DxoKind byte {b}"))),
        }
    }
}

impl WireEncode for ClientMessage {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ClientMessage::Register {
                site,
                token,
                dh_public,
                codec,
            } => {
                0u8.encode(out);
                site.encode(out);
                token.encode(out);
                dh_public.encode(out);
                codec.encode(out);
            }
            ClientMessage::Submit {
                round,
                ack,
                kind,
                n_examples,
                metrics,
                payload,
            } => {
                1u8.encode(out);
                round.encode(out);
                ack.encode(out);
                kind.encode(out);
                n_examples.encode(out);
                metrics.encode(out);
                payload.encode(out);
            }
            ClientMessage::ValidateReport { round, metric, ack } => {
                2u8.encode(out);
                round.encode(out);
                metric.encode(out);
                ack.encode(out);
            }
            ClientMessage::Bye { site } => {
                3u8.encode(out);
                site.encode(out);
            }
            ClientMessage::Heartbeat { site } => {
                4u8.encode(out);
                site.encode(out);
            }
            ClientMessage::SubmitShard {
                round,
                ack,
                n_examples,
                sites,
                dropped,
                payload,
            } => {
                5u8.encode(out);
                round.encode(out);
                ack.encode(out);
                n_examples.encode(out);
                encode_pairs(sites, out);
                dropped.encode(out);
                payload.encode(out);
            }
            ClientMessage::ValidateShard {
                round,
                ack,
                reports,
            } => {
                6u8.encode(out);
                round.encode(out);
                ack.encode(out);
                encode_pairs(reports, out);
            }
            ClientMessage::AnnounceLeaves { sites } => {
                7u8.encode(out);
                sites.encode(out);
            }
        }
    }
}

impl WireDecode for ClientMessage {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, FlareError> {
        match u8::decode(r)? {
            0 => Ok(ClientMessage::Register {
                site: String::decode(r)?,
                token: String::decode(r)?,
                dh_public: u64::decode(r)?,
                codec: String::decode(r)?,
            }),
            1 => Ok(ClientMessage::Submit {
                round: u32::decode(r)?,
                ack: u32::decode(r)?,
                kind: DxoKind::decode(r)?,
                n_examples: u64::decode(r)?,
                metrics: BTreeMap::decode(r)?,
                payload: Payload::decode(r)?,
            }),
            2 => Ok(ClientMessage::ValidateReport {
                round: u32::decode(r)?,
                metric: f64::decode(r)?,
                ack: u32::decode(r)?,
            }),
            3 => Ok(ClientMessage::Bye {
                site: String::decode(r)?,
            }),
            4 => Ok(ClientMessage::Heartbeat {
                site: String::decode(r)?,
            }),
            5 => Ok(ClientMessage::SubmitShard {
                round: u32::decode(r)?,
                ack: u32::decode(r)?,
                n_examples: u64::decode(r)?,
                sites: decode_pairs(r)?,
                dropped: Vec::decode(r)?,
                payload: Payload::decode(r)?,
            }),
            6 => Ok(ClientMessage::ValidateShard {
                round: u32::decode(r)?,
                ack: u32::decode(r)?,
                reports: decode_pairs(r)?,
            }),
            7 => Ok(ClientMessage::AnnounceLeaves {
                sites: Vec::decode(r)?,
            }),
            b => Err(FlareError::Codec(format!("invalid ClientMessage tag {b}"))),
        }
    }
}

impl WireEncode for TaskAssignment {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            TaskAssignment::Train {
                round,
                total_rounds,
                payload,
            } => {
                0u8.encode(out);
                round.encode(out);
                total_rounds.encode(out);
                payload.encode(out);
            }
            TaskAssignment::Validate { round, payload } => {
                1u8.encode(out);
                round.encode(out);
                payload.encode(out);
            }
            TaskAssignment::Finish => 2u8.encode(out),
        }
    }
}

impl WireDecode for TaskAssignment {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, FlareError> {
        match u8::decode(r)? {
            0 => Ok(TaskAssignment::Train {
                round: u32::decode(r)?,
                total_rounds: u32::decode(r)?,
                payload: Payload::decode(r)?,
            }),
            1 => Ok(TaskAssignment::Validate {
                round: u32::decode(r)?,
                payload: Payload::decode(r)?,
            }),
            2 => Ok(TaskAssignment::Finish),
            b => Err(FlareError::Codec(format!("invalid TaskAssignment tag {b}"))),
        }
    }
}

impl WireEncode for ServerMessage {
    fn encode(&self, out: &mut Vec<u8>) {
        match self {
            ServerMessage::RegisterAck {
                accepted,
                session,
                dh_public,
                codec,
            } => {
                0u8.encode(out);
                accepted.encode(out);
                session.encode(out);
                dh_public.encode(out);
                codec.encode(out);
            }
            ServerMessage::Task(t) => {
                1u8.encode(out);
                t.encode(out);
            }
        }
    }
}

impl WireDecode for ServerMessage {
    fn decode(r: &mut WireReader<'_>) -> Result<Self, FlareError> {
        match u8::decode(r)? {
            0 => Ok(ServerMessage::RegisterAck {
                accepted: bool::decode(r)?,
                session: String::decode(r)?,
                dh_public: u64::decode(r)?,
                codec: String::decode(r)?,
            }),
            1 => Ok(ServerMessage::Task(TaskAssignment::decode(r)?)),
            b => Err(FlareError::Codec(format!("invalid ServerMessage tag {b}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{encode_weights, CodecSpec, NO_BASE};

    fn weights() -> Weights {
        let mut w = Weights::new();
        w.insert(
            "layer.w".into(),
            WeightTensor::new(vec![2, 3], vec![1., 2., 3., 4., 5., 6.]),
        );
        w.insert("layer.b".into(), WeightTensor::new(vec![3], vec![0.; 3]));
        w
    }

    fn encoded() -> Payload {
        let spec = CodecSpec::parse("delta+int8").unwrap();
        Payload::Encoded(encode_weights(&weights(), 1, None, &spec, None).unwrap())
    }

    fn roundtrip<T: WireEncode + WireDecode + PartialEq + std::fmt::Debug>(v: T) {
        assert_eq!(v, T::from_frame(&v.to_frame()).expect("decode"));
    }

    #[test]
    fn client_messages_roundtrip() {
        roundtrip(ClientMessage::Register {
            site: "site-1".into(),
            token: "2c15ddc6".into(),
            dh_public: 123456789,
            codec: "delta+int8".into(),
        });
        let mut metrics = BTreeMap::new();
        metrics.insert("train_loss".to_string(), 0.919);
        metrics.insert("valid_acc".to_string(), 0.496);
        for (ack, payload) in [(NO_BASE, Payload::Raw(weights())), (3, encoded())] {
            roundtrip(ClientMessage::Submit {
                round: 3,
                ack,
                kind: DxoKind::Weights,
                n_examples: 866,
                metrics: metrics.clone(),
                payload,
            });
        }
        roundtrip(ClientMessage::ValidateReport {
            round: 9,
            metric: 0.875,
            ack: NO_BASE,
        });
        roundtrip(ClientMessage::Bye {
            site: "site-8".into(),
        });
        roundtrip(ClientMessage::Heartbeat {
            site: "site-4".into(),
        });
    }

    #[test]
    fn server_messages_roundtrip() {
        roundtrip(ServerMessage::RegisterAck {
            accepted: true,
            session: "64245db0".into(),
            dh_public: 42,
            codec: "raw".into(),
        });
        for payload in [Payload::Raw(weights()), encoded()] {
            roundtrip(ServerMessage::Task(TaskAssignment::Train {
                round: 0,
                total_rounds: 10,
                payload: payload.clone(),
            }));
            roundtrip(ServerMessage::Task(TaskAssignment::Validate {
                round: 1,
                payload,
            }));
        }
        roundtrip(ServerMessage::Task(TaskAssignment::Finish));
    }

    #[test]
    fn with_payload_keeps_the_task_fields() {
        let train = TaskAssignment::Train {
            round: 2,
            total_rounds: 5,
            payload: Payload::Raw(weights()),
        };
        let swapped = train.with_payload(encoded());
        assert_eq!(swapped.payload(), Some(&encoded()));
        assert_eq!(swapped.with_payload(Payload::Raw(weights())), train);
        assert_eq!(
            TaskAssignment::Finish.with_payload(encoded()),
            TaskAssignment::Finish
        );
    }

    #[test]
    fn tensor_dims_mismatch_rejected() {
        let mut out = crate::wire::FRAME_MAGIC.to_vec();
        vec![2usize, 3].encode(&mut out);
        vec![1.0f32; 5].encode(&mut out); // should be 6
        assert!(WeightTensor::from_frame(&out).is_err());
        let mut out = crate::wire::FRAME_MAGIC.to_vec();
        vec![usize::MAX, 2].encode(&mut out); // product overflows
        Vec::<f32>::new().encode(&mut out);
        assert!(WeightTensor::from_frame(&out).is_err());
    }

    #[test]
    fn unknown_tags_rejected() {
        let mut out = crate::wire::FRAME_MAGIC.to_vec();
        99u8.encode(&mut out);
        assert!(ClientMessage::from_frame(&out).is_err());
        assert!(ServerMessage::from_frame(&out).is_err());
        assert!(TaskAssignment::from_frame(&out).is_err());
        assert!(DxoKind::from_frame(&out).is_err());
        assert!(Payload::from_frame(&out).is_err());
    }

    #[test]
    fn shard_messages_roundtrip() {
        let mut metrics = BTreeMap::new();
        metrics.insert("train_loss".to_string(), 0.25);
        roundtrip(ClientMessage::SubmitShard {
            round: 4,
            ack: NO_BASE,
            n_examples: 64,
            sites: vec![
                ("site-1".to_string(), metrics.clone()),
                ("site-2".to_string(), BTreeMap::new()),
            ],
            dropped: vec!["site-3".to_string()],
            payload: Payload::Raw(weights()),
        });
        roundtrip(ClientMessage::SubmitShard {
            round: 5,
            ack: 7,
            n_examples: 128,
            sites: vec![("site-4".to_string(), metrics)],
            dropped: vec![],
            payload: encoded(),
        });
        roundtrip(ClientMessage::ValidateShard {
            round: 4,
            ack: NO_BASE,
            reports: vec![("site-1".to_string(), 0.5), ("site-2".to_string(), 0.75)],
        });
        roundtrip(ClientMessage::AnnounceLeaves {
            sites: vec!["site-1".to_string(), "site-2".to_string()],
        });
    }
}
