//! Workspace scoping: which paths each rule polices.
//!
//! Rules are pure pattern logic; this module is the single place that
//! knows the shape of *this* workspace — which crates bear digests,
//! where wall-clock reads are legitimate, which enums ride the wire.
//! All paths are workspace-relative with `/` separators.

use crate::codec::CodecCheck;

/// Directories never scanned: vendored stand-ins, build output, and the
/// lint fixtures (which contain violations *on purpose*).
pub const SKIP_DIRS: &[&str] = &[".git", "target", "vendor", "crates/lint/tests/fixtures"];

/// D1 allowlist: paths where reading the wall clock is the point.
/// Benches meter real elapsed time by design; the program itself keeps no
/// wall-clock timing of its own.
pub const D1_ALLOW: &[&str] = &["crates/bench/"];

/// D2 scope: the digest-bearing crates. A nondeterministic iteration
/// order anywhere in these can surface in a state digest.
pub const D2_SCOPE: &[&str] = &[
    "crates/eth/",
    "crates/core/",
    "crates/fl/",
    "crates/incentive/",
];

/// R1 scope: the daemon and the transport layer it runs on. Worker
/// threads here face untrusted peers and must degrade, not panic.
pub const R1_SCOPE: &[&str] = &["crates/rpcd/src/", "crates/rpc/src/transport.rs"];

/// True when `path` starts with any prefix in `prefixes`.
pub fn path_in(path: &str, prefixes: &[&str]) -> bool {
    prefixes.iter().any(|p| path.starts_with(p))
}

/// The wire enums held to the encode/decode/round-trip-test triple.
pub fn codec_checks() -> Vec<CodecCheck> {
    const PROPTESTS: &[&str] = &["crates/rpc/tests/proptests.rs"];
    vec![
        CodecCheck {
            enum_name: "Frame",
            decl_path: "crates/rpc/src/frame.rs",
            codec_path: "crates/rpc/src/frame.rs",
            encode_fns: &["write_payload"],
            decode_fns: &["decode_payload_at"],
            test_paths: PROPTESTS,
        },
        CodecCheck {
            enum_name: "RpcMethod",
            decl_path: "crates/rpc/src/envelope.rs",
            codec_path: "crates/rpc/src/envelope.rs",
            encode_fns: &["write"],
            decode_fns: &["read"],
            test_paths: PROPTESTS,
        },
        CodecCheck {
            enum_name: "RpcResult",
            decl_path: "crates/rpc/src/envelope.rs",
            codec_path: "crates/rpc/src/envelope.rs",
            encode_fns: &["write"],
            decode_fns: &["read"],
            test_paths: PROPTESTS,
        },
        CodecCheck {
            enum_name: "BackstageOp",
            decl_path: "crates/rpc/src/backstage.rs",
            codec_path: "crates/rpc/src/frame.rs",
            encode_fns: &["write_backstage_op"],
            decode_fns: &["read_backstage_op"],
            test_paths: PROPTESTS,
        },
        CodecCheck {
            enum_name: "SubscriptionKind",
            decl_path: "crates/rpc/src/sub.rs",
            codec_path: "crates/rpc/src/frame.rs",
            encode_fns: &["write_sub_kind"],
            decode_fns: &["read_sub_kind"],
            test_paths: PROPTESTS,
        },
        CodecCheck {
            enum_name: "SubEvent",
            decl_path: "crates/rpc/src/sub.rs",
            codec_path: "crates/rpc/src/frame.rs",
            encode_fns: &["write_sub_event"],
            decode_fns: &["read_sub_event"],
            test_paths: PROPTESTS,
        },
        CodecCheck {
            enum_name: "BackstageReply",
            decl_path: "crates/rpc/src/backstage.rs",
            codec_path: "crates/rpc/src/frame.rs",
            encode_fns: &["write_backstage_reply"],
            decode_fns: &["read_backstage_reply"],
            test_paths: PROPTESTS,
        },
    ]
}
