//! Corrupted-input corpus: every malformed, truncated, or bit-flipped graph
//! file must surface as a typed `Err(GraphError)` — never a panic — and
//! numeric poison must be caught by the supervised runner with a populated
//! report.
//!
//! Fault-injection cases are driven by `mixen_graph::faults`, so each
//! failure is reproducible from `(input, plan)`.

use mixen_algos::{pagerank_supervised, PageRankOpts};
use mixen_core::{EngineUsed, RobustRunner, RunnerOpts};
use mixen_graph::io::{self, crc32, MAX_EDGES, MAX_NODES};
use mixen_graph::{FaultPlan, FaultyReader, Graph, GraphError};

fn sample_graph() -> Graph {
    Graph::from_pairs(
        9,
        &[
            (0, 1),
            (1, 2),
            (2, 0),
            (1, 0),
            (3, 0),
            (3, 5),
            (4, 1),
            (4, 2),
            (0, 5),
            (2, 6),
            (6, 7),
        ],
    )
}

fn v2_bytes(g: &Graph) -> Vec<u8> {
    let mut out = Vec::new();
    io::write_csr(g, &mut out).unwrap();
    out
}

/// An `MXG2` file around a hand-built payload, with a correct checksum, so
/// a structural defect in the payload is the only thing wrong with it.
fn mxg2_with_payload(n: u64, ptr: &[u64], idx: &[u32]) -> Vec<u8> {
    let mut payload = Vec::new();
    for p in ptr {
        payload.extend_from_slice(&p.to_le_bytes());
    }
    for i in idx {
        payload.extend_from_slice(&i.to_le_bytes());
    }
    let mut bytes = Vec::new();
    bytes.extend_from_slice(b"MXG2");
    bytes.extend_from_slice(&n.to_le_bytes());
    bytes.extend_from_slice(&(idx.len() as u64).to_le_bytes());
    bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
    bytes.extend_from_slice(&payload);
    bytes
}

fn assert_same(a: &Graph, b: &Graph) {
    assert_eq!(a.n(), b.n());
    assert_eq!(a.m(), b.m());
    assert_eq!(a.out_csr().ptr(), b.out_csr().ptr());
    assert_eq!(a.out_csr().idx(), b.out_csr().idx());
}

#[test]
fn v2_roundtrip_with_checksum() {
    let g = sample_graph();
    let bytes = v2_bytes(&g);
    assert_eq!(&bytes[..4], b"MXG2");
    let loaded = io::read_csr(&mut bytes.as_slice()).unwrap();
    assert_same(&g, &loaded);
}

#[test]
fn every_truncation_errors_never_panics() {
    let bytes = v2_bytes(&sample_graph());
    for cut in 0..bytes.len() {
        let err = io::read_csr(&mut &bytes[..cut]).expect_err(&format!(
            "prefix of {cut}/{} bytes must not parse",
            bytes.len()
        ));
        // Truncation may surface as plain I/O (header EOF), an invariant
        // breach, or a checksum mismatch — but always typed.
        match err {
            GraphError::Io(_)
            | GraphError::Format(_)
            | GraphError::Invariant(_)
            | GraphError::Checksum { .. } => {}
            other => panic!("unexpected variant for cut {cut}: {other}"),
        }
    }
}

#[test]
fn every_single_bit_flip_is_caught_in_v2() {
    // The CRC32 guarantees any single-bit corruption in a v2 file is
    // detected (header flips change magic/counts, payload flips break the
    // checksum).
    let g = sample_graph();
    let bytes = v2_bytes(&g);
    for byte in 0..bytes.len() {
        for bit in 0..8 {
            let mut mutated = bytes.clone();
            mutated[byte] ^= 1 << bit;
            assert!(
                io::read_csr(&mut mutated.as_slice()).is_err(),
                "flip at byte {byte} bit {bit} went unnoticed"
            );
        }
    }
}

#[test]
fn flipped_payload_bit_is_a_checksum_error() {
    let g = sample_graph();
    let mut bytes = v2_bytes(&g);
    let last = bytes.len() - 1;
    bytes[last] ^= 0x10;
    match io::read_csr(&mut bytes.as_slice()) {
        // Flips that keep the CSR structurally valid are caught by the CRC;
        // flips that break monotonicity first may surface as Invariant.
        Err(GraphError::Checksum { stored, computed }) => assert_ne!(stored, computed),
        Err(GraphError::Invariant(_)) => {}
        other => panic!("expected checksum/invariant error, got {other:?}"),
    }
}

#[test]
fn flipped_stored_crc_is_a_checksum_error() {
    let g = sample_graph();
    let mut bytes = v2_bytes(&g);
    bytes[20] ^= 0x01; // the stored CRC field (after magic + n + m)
    match io::read_csr(&mut bytes.as_slice()) {
        Err(GraphError::Checksum { stored, computed }) => assert_ne!(stored, computed),
        other => panic!("expected checksum error, got {other:?}"),
    }
}

#[test]
fn bad_magic_is_a_format_error() {
    for magic in [*b"MXG0", *b"MXG1", *b"GXM1", *b"\0\0\0\0", *b"MXG3"] {
        let mut bytes = v2_bytes(&sample_graph());
        bytes[..4].copy_from_slice(&magic);
        match io::read_csr(&mut bytes.as_slice()) {
            Err(GraphError::Format(_)) => {}
            other => panic!("magic {magic:?}: expected format error, got {other:?}"),
        }
    }
}

#[test]
fn absurd_headers_are_capacity_errors() {
    // A header claiming u64::MAX nodes must be rejected before any
    // allocation is attempted (the pre-allocation DoS).
    for (n, m) in [
        (u64::MAX, 0),
        (MAX_NODES + 1, 0),
        (1, u64::MAX),
        (1, MAX_EDGES + 1),
    ] {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"MXG2");
        bytes.extend_from_slice(&n.to_le_bytes());
        bytes.extend_from_slice(&m.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 64]);
        match io::read_csr(&mut bytes.as_slice()) {
            Err(GraphError::Capacity {
                requested, limit, ..
            }) => {
                assert!(requested > limit);
            }
            other => panic!("n={n} m={m}: expected capacity error, got {other:?}"),
        }
    }
}

#[test]
fn non_monotone_ptr_is_an_invariant_error() {
    // A checksummed file whose ptr array decreases.
    let bytes = mxg2_with_payload(3, &[0, 2, 1, 2], &[0, 1]);
    match io::read_csr(&mut bytes.as_slice()) {
        Err(GraphError::Invariant(msg)) => assert!(!msg.is_empty()),
        other => panic!("expected invariant error, got {other:?}"),
    }
}

#[test]
fn out_of_range_idx_is_an_invariant_error() {
    let bytes = mxg2_with_payload(3, &[0, 1, 2, 2], &[1, 99]);
    match io::read_csr(&mut bytes.as_slice()) {
        Err(GraphError::Invariant(msg)) => assert!(!msg.is_empty()),
        other => panic!("expected invariant error, got {other:?}"),
    }
}

#[test]
fn seeded_fault_plans_never_panic_and_are_deterministic() {
    let g = sample_graph();
    let bytes = v2_bytes(&g);
    for seed in 0..200u64 {
        let read = |s| {
            let plan = FaultPlan::from_seed(s, bytes.len() as u64);
            let mut r = FaultyReader::new(bytes.as_slice(), plan);
            io::read_csr(&mut r)
        };
        let (a, b) = (read(seed), read(seed));
        match (&a, &b) {
            (Ok(ga), Ok(gb)) => assert_same(ga, gb),
            (Err(ea), Err(eb)) => {
                assert_eq!(
                    ea.kind_name(),
                    eb.kind_name(),
                    "seed {seed} not deterministic"
                )
            }
            _ => panic!("seed {seed}: one attempt succeeded, the other failed"),
        }
    }
}

#[test]
fn interrupted_storms_alone_are_survivable() {
    // Interruption-only plans must not lose data: read_csr retries through
    // them and still verifies the checksum.
    let g = sample_graph();
    let bytes = v2_bytes(&g);
    for count in [1u32, 2, 5] {
        let plan = FaultPlan::from_faults([
            mixen_graph::Fault::Interrupted { count },
            mixen_graph::Fault::ShortChunks(3),
        ]);
        let mut r = FaultyReader::new(bytes.as_slice(), plan);
        let loaded = io::read_csr(&mut r).unwrap_or_else(|e| panic!("count {count}: {e}"));
        assert_same(&g, &loaded);
    }
}

#[test]
fn crc32_check_vector() {
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
}

#[test]
fn malformed_text_lines_are_reported_with_line_numbers() {
    let cases: &[(&str, usize)] = &[
        ("0 1\n1 two\n", 2),
        ("x\n", 1),
        ("0 1\n2\n", 2),
        ("0 1\n\n1 2 3\n", 3),
    ];
    for (text, line) in cases {
        match io::read_edge_list(text.as_bytes(), 0) {
            Err(GraphError::Parse { line: l, .. }) => assert_eq!(l, *line, "input {text:?}"),
            other => panic!("{text:?}: expected parse error, got {other:?}"),
        }
    }
}

#[test]
fn oversized_text_declarations_are_rejected() {
    // n= beyond the cap, with the line number pinpointed.
    let text = "# n=4294967295\n0 1\n";
    match io::read_edge_list_capped(text.as_bytes(), 0, 1 << 20) {
        Err(GraphError::Parse { line, .. }) => assert_eq!(line, 1),
        other => panic!("expected parse error, got {other:?}"),
    }
    // Edge endpoints beyond the cap are a capacity error.
    let text = "0 2000000\n";
    match io::read_edge_list_capped(text.as_bytes(), 0, 1 << 20) {
        Err(GraphError::Capacity {
            requested, limit, ..
        }) => {
            assert_eq!(requested, 2_000_001);
            assert_eq!(limit, 1 << 20);
        }
        other => panic!("expected capacity error, got {other:?}"),
    }
}

// ---------------------------------------------------------------------------
// Checkpoint (`CKPT1`) corpus: the durability layer gets the same hostile
// treatment as the graph formats — every corruption is a typed error.
// ---------------------------------------------------------------------------

fn sample_checkpoint(g: &Graph) -> (mixen_graph::Checkpoint, Vec<u8>) {
    let vals: Vec<f32> = (0..g.n()).map(|i| 0.25 + i as f32).collect();
    let crc = mixen_graph::io::graph_checksum(g);
    let ck = mixen_graph::Checkpoint::from_values(7, 1.5e-3, 0xfeed_beef, crc, &vals);
    let mut bytes = Vec::new();
    ck.write_to(&mut bytes).unwrap();
    (ck, bytes)
}

#[test]
fn checkpoint_truncations_error_never_panic() {
    let g = sample_graph();
    let (_, bytes) = sample_checkpoint(&g);
    for cut in 0..bytes.len() {
        let err = mixen_graph::Checkpoint::read_from(&mut &bytes[..cut]).expect_err(&format!(
            "prefix of {cut}/{} bytes must not parse",
            bytes.len()
        ));
        match err {
            GraphError::Io(_) | GraphError::Format(_) | GraphError::Checksum { .. } => {}
            other => panic!("unexpected variant for cut {cut}: {other}"),
        }
    }
}

#[test]
fn checkpoint_payload_flip_is_a_checksum_error() {
    let g = sample_graph();
    let (_, bytes) = sample_checkpoint(&g);
    // Flip one byte in every payload position; all must be caught by the
    // payload CRC.
    let header = bytes.len() - g.n() * 4;
    for pos in header..bytes.len() {
        let mut mutated = bytes.clone();
        mutated[pos] ^= 0x04;
        match mixen_graph::Checkpoint::read_from(&mut mutated.as_slice()) {
            Err(GraphError::Checksum { stored, computed }) => assert_ne!(stored, computed),
            other => panic!("payload flip at {pos}: expected checksum error, got {other:?}"),
        }
    }
}

#[test]
fn checkpoint_graph_mismatch_is_rejected_on_resume() {
    let g = sample_graph();
    let dir = std::env::temp_dir().join("mixen_corpus_ckpt");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("stale.ckpt");
    let runner = RobustRunner::new(RunnerOpts {
        checkpoint_path: Some(path.clone()),
        ..RunnerOpts::default()
    });
    runner
        .run::<f32, _, _>(&g, |_| 1.0, |_, s| 0.5 * s, 3)
        .unwrap();
    // Same node count, different edges: only the graph checksum tells them
    // apart, and it must.
    let other = Graph::from_pairs(9, &[(0, 1), (1, 2), (2, 3), (3, 4)]);
    let err = runner.resume_from::<f32>(&other, &path).unwrap_err();
    assert!(matches!(err, GraphError::Format(_)), "{err}");
    assert!(err.to_string().contains("graph checksum"), "{err}");
    std::fs::remove_file(&path).ok();
}

#[test]
fn torn_half_checkpoint_is_typed_and_old_snapshot_survives() {
    // The torn-rename scenario: a crash mid-write leaves a half-length tmp
    // file. The reader rejects the fragment with a typed error, and the
    // atomic protocol means the previous full snapshot is still intact.
    let g = sample_graph();
    let dir = std::env::temp_dir().join("mixen_corpus_torn");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("torn.ckpt");
    let (ck, bytes) = sample_checkpoint(&g);
    ck.save_atomic(&path).unwrap();
    // Simulate the torn in-flight write next to the durable snapshot.
    let tmp = mixen_graph::ckpt::tmp_path(&path);
    std::fs::write(&tmp, &bytes[..bytes.len() / 2]).unwrap();
    let err = mixen_graph::Checkpoint::load(&tmp).unwrap_err();
    assert!(
        matches!(err, GraphError::Io(_) | GraphError::Format(_)),
        "{err}"
    );
    let durable = mixen_graph::Checkpoint::load(&path).unwrap();
    assert_eq!(durable, ck);
    std::fs::remove_file(&tmp).ok();
    std::fs::remove_file(&path).ok();
}

#[test]
fn checkpoint_writes_through_fault_plans_are_typed() {
    // Disk-full and short-write plans against the checkpoint encoder: the
    // write fails with a typed I/O error, never a panic.
    let g = sample_graph();
    let (ck, bytes) = sample_checkpoint(&g);
    for k in [0u64, 1, 16, bytes.len() as u64 - 1] {
        let mut out = Vec::new();
        let mut w = mixen_graph::FaultyWriter::new(&mut out, FaultPlan::disk_full_at(k));
        let err = ck.write_to(&mut w).expect_err(&format!("disk full at {k}"));
        assert_eq!(err.kind(), std::io::ErrorKind::WriteZero);
    }
    // Short writes alone must not corrupt anything: the writer loops.
    let mut out = Vec::new();
    let mut w = mixen_graph::FaultyWriter::new(&mut out, FaultPlan::short_writes(3));
    ck.write_to(&mut w).unwrap();
    assert_eq!(out, bytes);
}

#[test]
fn nan_poisoned_pagerank_is_a_numeric_error_with_report() {
    let g = sample_graph();
    let runner = RobustRunner::new(RunnerOpts::default());
    let failure = pagerank_supervised(&g, &runner, PageRankOpts { damping: f32::NAN }, 10)
        .expect_err("NaN damping must fail");
    match &failure.error {
        GraphError::Numeric { iteration, msg } => {
            assert!(*iteration <= 1);
            assert!(msg.contains("NaN"), "msg: {msg}");
        }
        other => panic!("expected numeric error, got {other}"),
    }
    // The report describes the run up to the fault.
    assert_eq!(failure.report.engine, EngineUsed::Mixen);
    assert!(failure.report.iterations <= 1);
    assert!(failure.to_string().contains("iteration"));
}

#[test]
fn divergent_iteration_is_a_numeric_error() {
    let g = sample_graph();
    let runner = RobustRunner::new(RunnerOpts::default());
    let failure = runner
        .run::<f32, _, _>(&g, |_| 1.0, |_, s| 100.0 * s + 100.0, 64)
        .expect_err("exponential blowup must be caught");
    assert!(matches!(failure.error, GraphError::Numeric { .. }));
    assert!(failure.report.iterations >= 1);
}
