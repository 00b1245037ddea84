//! Graph serialization.
//!
//! * A compact binary CSR format mirroring the paper's setup, where GPOP and
//!   Mixen ingest a prebuilt CSR binary directly (§6.5 / Table 4): `MXG2`,
//!   `magic | n:u64 | m:u64 | crc32:u32 | ptr[(n+1)×u64] | idx[m×u32]`, all
//!   little-endian, with a CRC-32/IEEE checksum of the payload bytes.
//!   [`write_csr`] emits it; [`read_csr`] verifies the checksum.
//! * A whitespace text edge-list format (`src dst` per line, `#` comments)
//!   matching what Ligra/Polymer/GraphMat-style frameworks convert from.
//!
//! All readers treat their input as untrusted: sizes declared in headers are
//! capped before any allocation, every `u64 → usize` cast is checked, and
//! every failure surfaces as a typed [`GraphError`] — never a panic.

use crate::nid;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::error::{GraphError, Result};
use crate::{Csr, EdgeList, Graph, NodeId};

const MAGIC_V2: &[u8; 4] = b"MXG2";

/// Hard cap on node counts accepted from untrusted headers. Node IDs are
/// `u32`, and the paper's largest graphs stay well under 2^31 nodes.
pub const MAX_NODES: u64 = 1 << 31;

/// Hard cap on edge counts accepted from untrusted headers (512 G edges —
/// an order of magnitude above the largest public web crawls).
pub const MAX_EDGES: u64 = 1 << 39;

/// Incremental-read chunk bound: never pre-allocate more than this many
/// elements on the say-so of a header; grow as bytes actually arrive.
const ALLOC_CHUNK: usize = 1 << 20;

// ---------------------------------------------------------------------------
// CRC-32/IEEE (the zlib/PNG polynomial), table-driven, no dependencies.
// ---------------------------------------------------------------------------

fn crc32_table() -> &'static [u32; 256] {
    use std::sync::OnceLock;
    static TABLE: OnceLock<[u32; 256]> = OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0u32; 256];
        for (i, slot) in table.iter_mut().enumerate() {
            let mut c = nid(i);
            for _ in 0..8 {
                c = if c & 1 != 0 {
                    0xEDB8_8320 ^ (c >> 1)
                } else {
                    c >> 1
                };
            }
            *slot = c;
        }
        table
    })
}

/// CRC-32/IEEE over `bytes` (init `!0`, final xor `!0`), resumable via
/// [`Crc32::update`].
#[derive(Clone, Copy, Debug)]
pub struct Crc32(u32);

impl Crc32 {
    pub fn new() -> Self {
        Crc32(!0)
    }

    pub fn update(&mut self, bytes: &[u8]) {
        let table = crc32_table();
        for &b in bytes {
            self.0 = table[((self.0 ^ u32::from(b)) & 0xFF) as usize] ^ (self.0 >> 8);
        }
    }

    pub fn finish(self) -> u32 {
        !self.0
    }
}

impl Default for Crc32 {
    fn default() -> Self {
        Self::new()
    }
}

/// Computes the CRC-32 of a byte slice in one call.
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = Crc32::new();
    c.update(bytes);
    c.finish()
}

/// `Read` adapter that folds every byte it passes through into a CRC-32.
struct Crc32Reader<'a, R> {
    inner: &'a mut R,
    crc: Crc32,
}

impl<'a, R: Read> Crc32Reader<'a, R> {
    fn new(inner: &'a mut R) -> Self {
        Self {
            inner,
            crc: Crc32::new(),
        }
    }
}

impl<R: Read> Read for Crc32Reader<'_, R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = self.inner.read(buf)?;
        self.crc.update(&buf[..n]);
        Ok(n)
    }
}

// ---------------------------------------------------------------------------
// Binary CSR
// ---------------------------------------------------------------------------

/// Writes the out-CSR of `g` in the binary format (`MXG2`, checksummed).
pub fn write_csr<W: Write>(g: &Graph, w: &mut W) -> io::Result<()> {
    let csr = g.out_csr();
    // First pass over the payload computes the checksum so the header can be
    // written up front without buffering the payload.
    let checksum = graph_checksum(g);

    w.write_all(MAGIC_V2)?;
    w.write_all(&(csr.n_rows() as u64).to_le_bytes())?;
    w.write_all(&(csr.nnz() as u64).to_le_bytes())?;
    w.write_all(&checksum.to_le_bytes())?;
    for &p in csr.ptr() {
        w.write_all(&(p as u64).to_le_bytes())?;
    }
    for &v in csr.idx() {
        w.write_all(&v.to_le_bytes())?;
    }
    Ok(())
}

/// CRC-32/IEEE over the MXG2 payload of `g`'s out-CSR (row pointers as
/// `u64` LE followed by column indices as `u32` LE) — the exact checksum
/// [`write_csr`] stores in the header. Exposed so checkpoints can pin the
/// graph they were computed from and reject stale resumes.
pub fn graph_checksum(g: &Graph) -> u32 {
    let csr = g.out_csr();
    let mut crc = Crc32::new();
    for &p in csr.ptr() {
        crc.update(&(p as u64).to_le_bytes());
    }
    for &v in csr.idx() {
        crc.update(&v.to_le_bytes());
    }
    crc.finish()
}

/// Reads a binary graph in the `MXG2` format and verifies its checksum;
/// the in-CSC is rebuilt by transposition.
pub fn read_csr<R: Read>(r: &mut R) -> Result<Graph> {
    let mut magic = [0u8; 4];
    r.read_exact(&mut magic).map_err(GraphError::Io)?;
    if &magic != MAGIC_V2 {
        return Err(GraphError::Format(format!(
            "bad magic {:02x?}: not an MXG2 file",
            magic
        )));
    }
    let n64 = read_u64(r)?;
    let m64 = read_u64(r)?;
    if n64 >= MAX_NODES {
        return Err(GraphError::Capacity {
            what: "node count",
            requested: n64,
            limit: MAX_NODES,
        });
    }
    if m64 >= MAX_EDGES {
        return Err(GraphError::Capacity {
            what: "edge count",
            requested: m64,
            limit: MAX_EDGES,
        });
    }
    let n = checked_usize(n64, "node count")?;
    let m = checked_usize(m64, "edge count")?;

    let stored = read_u32(r)?;
    let mut cr = Crc32Reader::new(r);
    let csr = read_payload(&mut cr, n, m)?;
    let computed = cr.crc.finish();
    if stored != computed {
        return Err(GraphError::Checksum { stored, computed });
    }
    Ok(Graph::from_csr(csr))
}

/// Reads `ptr` and `idx` incrementally — allocation grows with bytes that
/// actually arrive, never in one jump from the untrusted header — and
/// validates every CSR invariant before construction.
fn read_payload<R: Read>(r: &mut R, n: usize, m: usize) -> Result<Csr> {
    let mut ptr = Vec::with_capacity((n + 1).min(ALLOC_CHUNK));
    for _ in 0..=n {
        ptr.push(checked_usize(read_u64(r)?, "row pointer")?);
    }
    let mut idx = Vec::with_capacity(m.min(ALLOC_CHUNK));
    let mut buf = [0u8; 4];
    for _ in 0..m {
        r.read_exact(&mut buf).map_err(GraphError::Io)?;
        idx.push(NodeId::from_le_bytes(buf));
    }
    Csr::try_from_parts(n, ptr, idx)
}

/// Writes `g` to a file in the current binary CSR format.
pub fn save(g: &Graph, path: impl AsRef<Path>) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    write_csr(g, &mut w)?;
    w.flush()
}

/// Loads a binary CSR graph (`MXG2`) from a file.
pub fn load(path: impl AsRef<Path>) -> Result<Graph> {
    let mut r = BufReader::new(std::fs::File::open(path).map_err(GraphError::Io)?);
    read_csr(&mut r)
}

// ---------------------------------------------------------------------------
// Text edge list
// ---------------------------------------------------------------------------

/// Writes a text edge list (`src dst` per line).
pub fn write_edge_list<W: Write>(g: &Graph, w: &mut W) -> io::Result<()> {
    writeln!(w, "# mixen edge list: n={} m={}", g.n(), g.m())?;
    for (s, d) in g.edges() {
        writeln!(w, "{s} {d}")?;
    }
    Ok(())
}

/// Parses a text edge list with the default node-count cap ([`MAX_NODES`]).
/// Node count is `max endpoint + 1` unless a larger `min_n` is given or the
/// header comment declares `n=<count>` (which [`write_edge_list`] emits, so
/// trailing isolated nodes round-trip).
pub fn read_edge_list<R: BufRead>(r: R, min_n: usize) -> Result<Graph> {
    read_edge_list_capped(r, min_n, MAX_NODES)
}

/// [`read_edge_list`] with a configurable cap on the `n=` header
/// declaration. A declaration above `max_nodes`, a duplicate declaration,
/// or one that overflows `u64` is reported with its line number.
pub fn read_edge_list_capped<R: BufRead>(r: R, min_n: usize, max_nodes: u64) -> Result<Graph> {
    let mut pairs: Vec<(NodeId, NodeId)> = Vec::new();
    let mut max_node = 0u32;
    let mut min_n = min_n;
    let mut declared_on: Option<usize> = None;
    for (lineno, line) in r.lines().enumerate() {
        let line = line.map_err(GraphError::Io)?;
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            // Recover the declared node count from the header, if present.
            // Only all-digit `n=` tokens count as declarations; anything
            // else is ordinary comment text.
            let decl_tok = line.split_whitespace().find_map(|tok| {
                tok.strip_prefix("n=")
                    .filter(|v| !v.is_empty() && v.bytes().all(|b| b.is_ascii_digit()))
            });
            if let Some(digits) = decl_tok {
                let decl = digits.parse::<u64>().map_err(|_| GraphError::Parse {
                    line: lineno + 1,
                    msg: format!("node count declaration n={digits} overflows u64"),
                })?;
                if decl > max_nodes {
                    return Err(GraphError::Parse {
                        line: lineno + 1,
                        msg: format!(
                            "node count declaration n={decl} exceeds the cap of {max_nodes}"
                        ),
                    });
                }
                if let Some(first) = declared_on {
                    return Err(GraphError::Parse {
                        line: lineno + 1,
                        msg: format!("duplicate n= declaration (first on line {first})"),
                    });
                }
                declared_on = Some(lineno + 1);
                min_n = min_n.max(decl as usize);
            }
            continue;
        }
        let mut it = line.split_whitespace();
        let parse = |tok: Option<&str>| -> Result<u32> {
            tok.ok_or_else(|| bad_line(lineno))?
                .parse::<u32>()
                .map_err(|_| bad_line(lineno))
        };
        let s = parse(it.next())?;
        let d = parse(it.next())?;
        if it.next().is_some() {
            return Err(bad_line(lineno));
        }
        max_node = max_node.max(s).max(d);
        pairs.push((s, d));
    }
    let n = if pairs.is_empty() {
        min_n
    } else {
        (max_node as usize + 1).max(min_n)
    };
    if n as u64 > max_nodes {
        return Err(GraphError::Capacity {
            what: "node count",
            requested: n as u64,
            limit: max_nodes,
        });
    }
    Ok(Graph::from_edge_list(&EdgeList::from_pairs(n, pairs)))
}

fn bad_line(lineno: usize) -> GraphError {
    GraphError::Parse {
        line: lineno + 1,
        msg: "malformed edge".into(),
    }
}

fn checked_usize(v: u64, what: &'static str) -> Result<usize> {
    usize::try_from(v).map_err(|_| GraphError::Capacity {
        what,
        requested: v,
        limit: usize::MAX as u64,
    })
}

fn read_u64<R: Read>(r: &mut R) -> Result<u64> {
    let mut buf = [0u8; 8];
    r.read_exact(&mut buf).map_err(GraphError::Io)?;
    Ok(u64::from_le_bytes(buf))
}

fn read_u32<R: Read>(r: &mut R) -> Result<u32> {
    let mut buf = [0u8; 4];
    r.read_exact(&mut buf).map_err(GraphError::Io)?;
    Ok(u32::from_le_bytes(buf))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy() -> Graph {
        Graph::from_pairs(5, &[(0, 1), (0, 2), (1, 2), (3, 0), (2, 4)])
    }

    #[test]
    fn binary_roundtrip() {
        let g = toy();
        let mut buf = Vec::new();
        write_csr(&g, &mut buf).unwrap();
        assert_eq!(&buf[..4], MAGIC_V2);
        let back = read_csr(&mut buf.as_slice()).unwrap();
        assert_eq!(g.out_csr(), back.out_csr());
        assert_eq!(g.in_csc(), back.in_csc());
    }

    #[test]
    fn binary_rejects_bad_magic() {
        let err = read_csr(&mut &b"NOPE"[..]).unwrap_err();
        assert!(matches!(err, GraphError::Format(_)), "{err}");
    }

    #[test]
    fn binary_rejects_truncation() {
        let g = toy();
        let mut buf = Vec::new();
        write_csr(&g, &mut buf).unwrap();
        buf.truncate(buf.len() - 3);
        let err = read_csr(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, GraphError::Io(_)), "{err}");
    }

    #[test]
    fn binary_rejects_flipped_payload_bit() {
        let g = toy();
        let mut buf = Vec::new();
        write_csr(&g, &mut buf).unwrap();
        let last = buf.len() - 1;
        buf[last] ^= 0x04;
        let err = read_csr(&mut buf.as_slice()).unwrap_err();
        // A flipped bit either breaks an invariant (if it pushes an index
        // out of range) or — the interesting case — is caught by the CRC.
        assert!(
            matches!(err, GraphError::Checksum { .. } | GraphError::Invariant(_)),
            "{err}"
        );
    }

    #[test]
    fn binary_rejects_absurd_header_without_allocating() {
        let mut buf = Vec::new();
        buf.extend_from_slice(MAGIC_V2);
        buf.extend_from_slice(&u64::MAX.to_le_bytes()); // n
        buf.extend_from_slice(&0u64.to_le_bytes()); // m
        let err = read_csr(&mut buf.as_slice()).unwrap_err();
        assert!(matches!(err, GraphError::Capacity { .. }), "{err}");
    }

    #[test]
    fn crc32_matches_known_vector() {
        // The classic check value for CRC-32/IEEE.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn text_roundtrip() {
        let g = toy();
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(buf.as_slice(), 0).unwrap();
        assert_eq!(g.out_csr(), back.out_csr());
    }

    #[test]
    fn text_handles_comments_blanks_and_min_n() {
        let text = "# header\n\n0 1\n1 2\n";
        let g = read_edge_list(text.as_bytes(), 10).unwrap();
        assert_eq!(g.n(), 10);
        assert_eq!(g.m(), 2);
    }

    #[test]
    fn text_roundtrip_keeps_trailing_isolated_nodes() {
        // Node 4 has no edges; the n= header must preserve it.
        let g = Graph::from_pairs(5, &[(0, 1), (2, 3)]);
        let mut buf = Vec::new();
        write_edge_list(&g, &mut buf).unwrap();
        let back = read_edge_list(buf.as_slice(), 0).unwrap();
        assert_eq!(back.n(), 5);
        assert_eq!(g.out_csr(), back.out_csr());
    }

    #[test]
    fn text_rejects_garbage() {
        let err = read_edge_list("0 x\n".as_bytes(), 0).unwrap_err();
        assert!(err.to_string().contains("line 1"), "{err}");
    }

    #[test]
    fn text_rejects_oversized_declaration() {
        let text = format!("# n={}\n0 1\n", u64::from(u32::MAX) + 10);
        let err = read_edge_list(text.as_bytes(), 0).unwrap_err();
        assert!(matches!(err, GraphError::Parse { line: 1, .. }), "{err}");
    }

    #[test]
    fn text_rejects_duplicate_declaration() {
        let err = read_edge_list("# n=5\n# n=7\n0 1\n".as_bytes(), 0).unwrap_err();
        match err {
            GraphError::Parse { line, msg } => {
                assert_eq!(line, 2);
                assert!(msg.contains("duplicate"), "{msg}");
                assert!(msg.contains("line 1"), "{msg}");
            }
            other => panic!("expected Parse, got {other}"),
        }
    }

    #[test]
    fn text_ignores_non_numeric_n_tokens_in_comments() {
        let g = read_edge_list("# note: n=lots of nodes\n0 1\n".as_bytes(), 0).unwrap();
        assert_eq!(g.n(), 2);
    }

    #[test]
    fn file_save_load() {
        let dir = std::env::temp_dir().join("mixen_io_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("toy.mxg");
        let g = toy();
        save(&g, &path).unwrap();
        let back = load(&path).unwrap();
        assert_eq!(g.out_csr(), back.out_csr());
        std::fs::remove_file(path).ok();
    }

    #[test]
    fn missing_file_is_io_error() {
        let err = load("/definitely/not/here.mxg").unwrap_err();
        assert!(matches!(err, GraphError::Io(_)), "{err}");
    }

    #[test]
    fn empty_graph_roundtrip() {
        let g = Graph::from_pairs(0, &[]);
        let mut buf = Vec::new();
        write_csr(&g, &mut buf).unwrap();
        let back = read_csr(&mut buf.as_slice()).unwrap();
        assert_eq!(back.n(), 0);
        assert_eq!(back.m(), 0);
    }
}
