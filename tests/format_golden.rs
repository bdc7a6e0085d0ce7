//! Format-identity golden bytes.
//!
//! The hex constants below are a WAL (header, one `m = 4` insert round,
//! one remove round) and a small engine snapshot, as written by the
//! table-driven CRC-32 codec. Today's writers must reproduce them byte
//! for byte, and `recover` must accept them, so logs and checkpoints
//! written before a change to the checksum's implementation still replay
//! after it. A change that alters these bytes is a format change and needs
//! a version bump, not a new constant.

use ucpc::core::incremental::IncrementalUcpc;
use ucpc::core::wal::{recover, LogEntry, LogOp, VecIo, WalFsync, WalWriter};
use ucpc::core::PruningConfig;
use ucpc::uncertain::Moments;

const ROWS: [[f64; 4]; 3] = [
    [0.5, -1.25, 2.0, 3.75],
    [4.0, 0.125, -2.5, 1.0],
    [-3.5, 2.25, 0.75, -0.5],
];
const ARRIVAL: [f64; 4] = [1.5, -0.75, 3.25, 0.0625];

/// 148 bytes: the 24-byte header, a 94-byte insert frame and a 30-byte
/// remove frame.
const GOLDEN_WAL: &str = concat!(
    "5543504357414c00020000000400000000000000155e50c056000000010100000000000000010000",
    "00810300000001000000000000000000f83f000000000000e8bf0000000000000a40000000000000",
    "b03f0000000000000640000000000000f13f0000000000202640000000000020e03ff7719c631600",
    "000001020000000000000001000000020300000001000000c3ccdf0c",
);

/// 576 bytes: the version-5 head, then META, SLOTS, ROWS and END chunks.
const GOLDEN_SNAPSHOT: &str = concat!(
    "55435043534e4150050000002a010000010004000000000000000200000000000000030000000000",
    "0000030000000000000000000000000000000200000000000000000000000000e03f000000000000",
    "e03f000000000000e03f000000000000e03f0000000000002a400000000000801c40000000000040",
    "14400000000000a02d4000000000000008c0000000000000f03f0000000000000640000000000000",
    "0a40000000000000004000000000000044400000000000203c400100000000000000000000000000",
    "d03f000000000000d03f000000000000d03f000000000000d03f0000000000403040000000000000",
    "d13f0000000000001a40000000000000f43f0000000000001040000000000000c03f000000000000",
    "04c0000000000000f03f000000000000f03f00000000004438400000000000443740bbe3f78d2800",
    "00000201000000000000000000000000010100000000000000000000000100000000000000000000",
    "0000b07a3518c100000004000000000000e03f000000000000f4bf00000000000000400000000000",
    "000e40000000000000e03f000000000000fd3f00000000000011400000000000a02c400000000000",
    "001040000000000000c03f00000000000004c0000000000000f03f00000000004030400000000000",
    "00d13f0000000000001a40000000000000f43f0000000000000cc000000000000002400000000000",
    "00e83f000000000000e0bf00000000000029400000000000401540000000000000ea3f0000000000",
    "00e03f2901bedf0100000005222a288b",
);

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).expect("hex digit pair"))
        .collect()
}

/// The snapshot's engine: three objects in `m = 4`, `k = 2`, pruning
/// pinned off so the bytes do not follow `UCPC_PRUNING`.
fn engine() -> IncrementalUcpc {
    let mut e = IncrementalUcpc::new(4, 2).unwrap();
    e.set_pruning(PruningConfig::Off);
    for r in &ROWS {
        let mu2: Vec<f64> = r.iter().map(|v| v * v + 0.25).collect();
        e.insert_moments(&Moments::from_mu_mu2(r.to_vec(), mu2))
            .unwrap();
    }
    e
}

/// The two logged rounds: `ARRIVAL` joins cluster 1 at slot 3, then leaves.
fn rounds() -> [Vec<LogEntry>; 2] {
    let mu2 = ARRIVAL.iter().map(|v| v * v + 0.5).collect();
    [
        vec![LogEntry {
            op: LogOp::Insert {
                slot: 3,
                cluster: 1,
            },
            mu: ARRIVAL.to_vec(),
            mu2,
        }],
        vec![LogEntry {
            op: LogOp::Remove {
                slot: 3,
                cluster: 1,
            },
            mu: Vec::new(),
            mu2: Vec::new(),
        }],
    ]
}

fn wal() -> Vec<u8> {
    let mut w = WalWriter::create(VecIo::new(), 4, WalFsync::Off).unwrap();
    for (seq, round) in (1..).zip(rounds()) {
        w.log_round(seq, &round).unwrap();
    }
    w.into_io().into_bytes()
}

#[test]
fn writers_reproduce_the_golden_bytes() {
    assert_eq!(wal(), unhex(GOLDEN_WAL));
    assert_eq!(engine().snapshot(), unhex(GOLDEN_SNAPSHOT));
}

#[test]
fn recover_replays_the_golden_log_onto_the_golden_snapshot() {
    let rec = recover(&unhex(GOLDEN_SNAPSHOT), &unhex(GOLDEN_WAL)).unwrap();
    assert_eq!((rec.frames_applied, rec.valid_bytes), (2, 148));
    assert_eq!(rec.damage, None);
    let mut live = engine();
    for round in rounds() {
        live.apply_round(&round).unwrap();
    }
    assert_eq!(rec.engine.snapshot(), live.snapshot());
}
