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

use std::convert::Infallible;
use std::io::{self, BufRead, BufReader, BufWriter, Read, Write};
use std::path::Path;

use crate::csr::{check_ptr_run, ColumnCounts, RowCheck};
use crate::error::{GraphError, Result};
use crate::{Csr, EdgeList, Graph, NodeId};

const MAGIC_V2: &[u8; 4] = b"MXG2";

/// Hard cap on node counts accepted from untrusted headers. Node IDs are
/// `u32`, and the paper's largest graphs stay well under 2^31 nodes.
pub const MAX_NODES: u64 = 1 << 31;

/// Hard cap on edge counts accepted from untrusted headers (512 G edges —
/// an order of magnitude above the largest public web crawls).
pub const MAX_EDGES: u64 = 1 << 39;

/// Elements per slab the MXG2 reader reads, checksums and decodes at a time:
/// 32 Ki row pointers are 256 KiB, which stays in L2 between the CRC and the
/// decode (a 1 Mi-element slab measured slower).
const SLAB: usize = 1 << 15;

// ---------------------------------------------------------------------------
// CRC-32/IEEE (the zlib/PNG polynomial), slicing-by-8, no dependencies.
// ---------------------------------------------------------------------------

/// `CRC_TABLES[0]` is the byte-at-a-time table; `CRC_TABLES[k][b]` is the CRC
/// of byte `b` followed by `k` zero bytes, so eight lookups fold eight bytes.
static CRC_TABLES: [[u32; 256]; 8] = crc_tables();

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b: u32 = 0;
    while b < 256 {
        let mut c = b;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        t[0][b as usize] = c;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
}

/// CRC-32/IEEE over `bytes` (init `!0`, final xor `!0`), resumable via
/// [`Crc32::update`].
#[derive(Clone, Copy, Debug)]
pub struct Crc32(u32);

impl Crc32 {
    pub fn new() -> Self {
        Crc32(!0)
    }

    /// Folds `bytes` in eight at a time, then the tail byte by byte. The
    /// value does not depend on how a stream is split across calls.
    pub fn update(&mut self, bytes: &[u8]) {
        let t = &CRC_TABLES;
        let mut c = self.0;
        let (words, tail) = bytes.as_chunks::<8>();
        for w in words {
            let lo = c ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
            let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
            c = t[7][(lo & 0xFF) as usize]
                ^ t[6][((lo >> 8) & 0xFF) as usize]
                ^ t[5][((lo >> 16) & 0xFF) as usize]
                ^ t[4][(lo >> 24) as usize]
                ^ t[3][(hi & 0xFF) as usize]
                ^ t[2][((hi >> 8) & 0xFF) as usize]
                ^ t[1][((hi >> 16) & 0xFF) as usize]
                ^ t[0][(hi >> 24) as usize];
        }
        for &b in tail {
            c = t[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        self.0 = c;
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
    encode_payload(csr, |slab| w.write_all(slab))
}

/// CRC-32/IEEE over the MXG2 payload of `g`'s out-CSR (row pointers as
/// `u64` LE followed by column indices as `u32` LE) — the exact checksum
/// [`write_csr`] stores in the header. Exposed so checkpoints can pin the
/// graph they were computed from and reject stale resumes.
pub fn graph_checksum(g: &Graph) -> u32 {
    let mut crc = Crc32::new();
    let Ok(()) = encode_payload::<Infallible>(g.out_csr(), |slab| {
        crc.update(slab);
        Ok(())
    });
    crc.finish()
}

/// Hands the MXG2 payload of `csr` to `sink` one encoded slab at a time:
/// the row pointers as `u64` LE, then the column indices as `u32` LE.
fn encode_payload<E>(
    csr: &Csr,
    mut sink: impl FnMut(&[u8]) -> std::result::Result<(), E>,
) -> std::result::Result<(), E> {
    let mut slab = [0u8; 1 << 16];
    for part in csr.ptr().chunks(slab.len() / 8) {
        let (words, _) = slab.as_chunks_mut::<8>();
        for (w, &p) in words.iter_mut().zip(part) {
            *w = (p as u64).to_le_bytes();
        }
        sink(&slab[..part.len() * 8])?;
    }
    for part in csr.idx().chunks(slab.len() / 4) {
        let (words, _) = slab.as_chunks_mut::<4>();
        for (w, &v) in words.iter_mut().zip(part) {
            *w = v.to_le_bytes();
        }
        sink(&slab[..part.len() * 4])?;
    }
    Ok(())
}

/// Bytes before the payload: magic, `n`, `m` and the stored CRC.
const HEADER_BYTES: u64 = 24;

/// An MXG2 header whose counts are within the caps.
struct Header {
    n: usize,
    m: usize,
    stored: u32,
}

impl Header {
    /// Reads and checks the magic, caps the counts and reads the stored CRC.
    fn read<R: Read>(r: &mut R) -> Result<Self> {
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
        Ok(Self {
            n: checked_usize(n64, "node count")?,
            m: checked_usize(m64, "edge count")?,
            stored: read_u32(r)?,
        })
    }

    /// Payload bytes the counts declare (below 2^42 under the caps).
    fn payload_bytes(&self) -> u64 {
        8 * (self.n as u64 + 1) + 4 * self.m as u64
    }

    /// The graph, if `computed` is the stored checksum.
    fn checked(&self, g: Graph, computed: u32) -> Result<Graph> {
        if self.stored != computed {
            return Err(GraphError::Checksum {
                stored: self.stored,
                computed,
            });
        }
        Ok(g)
    }
}

/// Reads a binary graph in the `MXG2` format and verifies its checksum. The
/// in-CSC is not built here: [`Graph`] builds it on first use. A stream
/// proves no length, so the arrays grow as bytes arrive, and the CRC is
/// folded into the walk slab by slab; [`load`] does better with a file.
pub fn read_csr<R: Read>(r: &mut R) -> Result<Graph> {
    let h = Header::read(r)?;
    let mut crc = Crc32::new();
    let g = read_payload(r, &h, Some(&mut crc), false)?;
    h.checked(g, crc.finish())
}

/// The one walk over the payload: per slab of at most [`SLAB`] elements,
/// one `read_exact`, then (on a stream) the CRC update, the decode, the
/// checks of [`Csr::validate`] and, for `idx`, the in-degree count, while the
/// slab is in L2. Allocation is bounded by what is known to exist: with
/// `proven` (the file's length covers the payload) `ptr` and `idx` are sized
/// once; without it they start at one slab and grow as bytes arrive, never
/// in one jump from the untrusted header.
fn read_payload<R: Read>(
    r: &mut R,
    h: &Header,
    mut crc: Option<&mut Crc32>,
    proven: bool,
) -> Result<Graph> {
    let (n, m) = (h.n, h.m);
    let cap = |count: usize| if proven { count } else { count.min(SLAB) };
    let mut slab = vec![0u8; (n + 1).max(m).min(SLAB) * 8];

    let mut ptr = Vec::with_capacity(cap(n + 1));
    let mut prev = 0;
    read_slabs::<_, 8>(r, crc.as_deref_mut(), &mut slab, n + 1, |words| {
        let start = ptr.len();
        for &w in words {
            ptr.push(checked_usize(u64::from_le_bytes(w), "row pointer")?);
        }
        check_ptr_run(&mut prev, &ptr[start..])
    })?;
    if ptr[0] != 0 {
        return Err(GraphError::Invariant("ptr[0] != 0".into()));
    }
    if ptr[n] != m {
        return Err(GraphError::Invariant(format!(
            "ptr[n] = {} != nnz = {m}",
            ptr[n]
        )));
    }

    let mut idx = Vec::with_capacity(cap(m));
    let mut rows = RowCheck::new(&ptr, n);
    let mut degrees = ColumnCounts::new(n);
    read_slabs::<_, 4>(r, crc, &mut slab, m, |words| {
        let start = idx.len();
        idx.extend(words.iter().map(|&w| NodeId::from_le_bytes(w)));
        rows.feed(&idx[start..])?;
        degrees.add(&idx[start..]);
        Ok(())
    })?;
    Ok(Graph::with_in_degrees(
        Csr::from_checked_parts(n, ptr, idx),
        degrees,
    ))
}

/// Reads `count` `W`-byte elements through `slab`, at most [`SLAB`] at a
/// time: one `read_exact` and (given a `crc`) one CRC update per slab, then
/// `walk` on the slab's elements.
fn read_slabs<R: Read, const W: usize>(
    r: &mut R,
    mut crc: Option<&mut Crc32>,
    slab: &mut [u8],
    count: usize,
    mut walk: impl FnMut(&[[u8; W]]) -> Result<()>,
) -> Result<()> {
    let mut left = count;
    while left > 0 {
        let k = left.min(SLAB);
        let bytes = &mut slab[..k * W];
        r.read_exact(bytes).map_err(GraphError::Io)?;
        if let Some(crc) = crc.as_deref_mut() {
            crc.update(bytes);
        }
        walk(bytes.as_chunks::<W>().0)?;
        left -= k;
    }
    Ok(())
}

/// CRC-32 of the `len` bytes of `file` from `offset`, read through `buf` by
/// positioned reads, which leave the handle's cursor alone: the checksum
/// lane of [`load`], reading the same open file the walk reads.
#[cfg(unix)]
fn crc_at(file: &std::fs::File, offset: u64, len: u64, buf: &mut [u8]) -> io::Result<u32> {
    use std::os::unix::fs::FileExt;
    let mut crc = Crc32::new();
    let (mut at, end) = (offset, offset + len);
    while at < end {
        let k = usize::try_from(end - at).map_or(buf.len(), |l| l.min(buf.len()));
        file.read_exact_at(&mut buf[..k], at)?;
        crc.update(&buf[..k]);
        at += k as u64;
    }
    Ok(crc.finish())
}

/// Writes `g` to a file in the current binary CSR format.
pub fn save(g: &Graph, path: impl AsRef<Path>) -> io::Result<()> {
    let mut w = BufWriter::new(std::fs::File::create(path)?);
    write_csr(g, &mut w)?;
    w.flush()
}

/// Loads a binary CSR graph (`MXG2`) from a file. A regular file's length
/// proves how much payload exists, so a header that declares more is an
/// error before anything is reserved, and `ptr` / `idx` are sized once. The
/// checksum is taken beside the walk, on a second pool lane that reads the
/// payload from the same open file by positioned reads; a structural error
/// in the payload is reported before a checksum mismatch, as [`read_csr`]
/// reports it. The two lanes read the file separately, so a file rewritten
/// in place while it loads is not caught by the checksum (a stream's CRC is
/// folded over the decoded bytes themselves). Any other kind of file is read
/// as a stream by [`read_csr`].
pub fn load(path: impl AsRef<Path>) -> Result<Graph> {
    let file = std::fs::File::open(path).map_err(GraphError::Io)?;
    let meta = file.metadata().map_err(GraphError::Io)?;
    let mut r = BufReader::new(&file);
    if !meta.is_file() {
        // A pipe or a device proves no length and cannot be read twice.
        return read_csr(&mut r);
    }
    let len = meta.len();
    let h = Header::read(&mut r)?;
    let (need, held) = (h.payload_bytes(), len.saturating_sub(HEADER_BYTES));
    if held < need {
        return Err(GraphError::Io(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            format!("the header declares {need} payload bytes, the file holds {held}"),
        )));
    }
    #[cfg(not(unix))]
    {
        let mut crc = Crc32::new();
        let g = read_payload(&mut r, &h, Some(&mut crc), true)?;
        h.checked(g, crc.finish())
    }
    #[cfg(unix)]
    {
        let mut crc = Ok(0);
        let lane = &mut crc;
        let file = &file;
        let g = mixen_pool::scope(|s| {
            s.spawn(move || {
                *lane = crc_at(file, HEADER_BYTES, need, &mut vec![0u8; SLAB * 8]);
            });
            read_payload(&mut r, &h, None, true)
        })?;
        h.checked(g, crc.map_err(GraphError::Io)?)
    }
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

    /// The byte-at-a-time table walk slicing-by-8 replaced.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in bytes {
            c = CRC_TABLES[0][((c ^ u32::from(b)) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn slicing_by_8_equals_the_bytewise_crc_at_every_length_and_split() {
        let mut rng = crate::rng::SplitMix64::new(0xC2C);
        let bytes: Vec<u8> = (0..4096).map(|_| rng.next_u64() as u8).collect();
        for len in 0..=64 {
            assert_eq!(
                crc32(&bytes[..len]),
                crc32_bytewise(&bytes[..len]),
                "len {len}"
            );
        }
        for _ in 0..200 {
            let len = rng.below(bytes.len() as u64 + 1) as usize;
            let want = crc32_bytewise(&bytes[..len]);
            let mut cuts: Vec<usize> = (0..rng.below(6))
                .map(|_| rng.below(len as u64 + 1) as usize)
                .collect();
            cuts.extend([0, len]);
            cuts.sort_unstable();
            let mut crc = Crc32::new();
            for w in cuts.windows(2) {
                crc.update(&bytes[w[0]..w[1]]);
            }
            assert_eq!(crc.finish(), want, "len {len}, cuts {cuts:?}");
        }
    }

    /// A `Read` that hands out 1, 2, ..., 7, 1, 2, ... bytes per call.
    struct Dribble<'a> {
        bytes: &'a [u8],
        calls: usize,
    }

    impl Read for Dribble<'_> {
        fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
            self.calls += 1;
            let k = (self.calls % 7 + 1).min(buf.len()).min(self.bytes.len());
            buf[..k].copy_from_slice(&self.bytes[..k]);
            self.bytes = &self.bytes[k..];
            Ok(k)
        }
    }

    /// A graph with `n` nodes and `m` edges spread over every row.
    fn sized(n: usize, m: usize) -> Graph {
        let pairs: Vec<(NodeId, NodeId)> = (0..m)
            .map(|e| (crate::nid(e % n), crate::nid(e * 7919 % n)))
            .collect();
        Graph::from_pairs(n, &pairs)
    }

    #[test]
    fn mxg2_loads_identically_through_one_to_seven_byte_reads() {
        for g in [toy(), sized(300, 2000), Graph::from_pairs(0, &[])] {
            let mut buf = Vec::new();
            write_csr(&g, &mut buf).unwrap();
            let mut r = Dribble {
                bytes: &buf,
                calls: 0,
            };
            let back = read_csr(&mut r).unwrap();
            assert_eq!(g.out_csr(), back.out_csr());
            assert!(r.calls > buf.len() / 7, "the reader was not short");
        }
    }

    #[test]
    fn mxg2_loads_identically_around_the_slab_size() {
        for n_plus_1 in [SLAB - 1, SLAB, SLAB + 1] {
            for m in [SLAB - 1, SLAB, SLAB + 1] {
                let g = sized(n_plus_1 - 1, m);
                let mut buf = Vec::new();
                write_csr(&g, &mut buf).unwrap();
                assert_eq!(buf.len(), 24 + 8 * n_plus_1 + 4 * m);
                let back = read_csr(&mut buf.as_slice()).unwrap();
                assert_eq!(g.out_csr(), back.out_csr(), "n + 1 = {n_plus_1}, m = {m}");
                assert_eq!(graph_checksum(&back), crc32(&buf[24..]));
            }
        }
    }

    #[test]
    fn loading_leaves_the_in_csc_unbuilt() {
        let mut buf = Vec::new();
        write_csr(&toy(), &mut buf).unwrap();
        let back = read_csr(&mut buf.as_slice()).unwrap();
        assert!(!back.has_in_csc());
        assert_eq!(back.in_degree(2), 2);
    }

    /// An MXG2 file around a hand-built payload with a correct checksum, so
    /// a structural defect is the only thing wrong with it.
    fn mxg2(n: u64, ptr: &[u64], idx: &[u32]) -> Vec<u8> {
        let mut payload = Vec::new();
        ptr.iter()
            .for_each(|p| payload.extend_from_slice(&p.to_le_bytes()));
        idx.iter()
            .for_each(|i| payload.extend_from_slice(&i.to_le_bytes()));
        let mut bytes = MAGIC_V2.to_vec();
        bytes.extend_from_slice(&n.to_le_bytes());
        bytes.extend_from_slice(&(idx.len() as u64).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        bytes
    }

    /// Reads `bytes` both ways: as a stream, and from a file by [`load`].
    fn read_both(bytes: &[u8], name: &str) -> [Result<Graph>; 2] {
        let path = std::env::temp_dir().join(format!("mixen_io_{name}.mxg"));
        std::fs::write(&path, bytes).unwrap();
        let loaded = load(&path);
        std::fs::remove_file(&path).ok();
        [read_csr(&mut &bytes[..]), loaded]
    }

    /// Row pointers of rows with the given lengths.
    fn ptr_of(lens: &[usize]) -> Vec<u64> {
        let mut acc = 0u64;
        std::iter::once(0)
            .chain(lens.iter().map(|&l| {
                acc += l as u64;
                acc
            }))
            .collect()
    }

    #[test]
    fn defects_straddling_a_slab_boundary_are_invariant_errors() {
        // Row 0 holds the first SLAB + 2 entries, so entry SLAB, the first
        // of the second idx slab, continues it.
        let n = 4u64;
        let ptr = ptr_of(&[SLAB + 2, 1, 0, 1]);
        let mut idx = vec![1u32; SLAB + 4];
        idx[SLAB..].copy_from_slice(&[2, 3, 0, 2]);
        // (what, position, value)
        let cases = [
            ("a descent inside row 0 at the boundary", SLAB, 0),
            ("an index past n just before it", SLAB - 1, 4),
            ("an index past n just after it", SLAB, 4),
            ("a descent inside row 0 just before it", SLAB - 1, 0),
        ];
        for r in read_both(&mxg2(n, &ptr, &idx), "slab_ok") {
            let g = r.unwrap();
            assert_eq!(g.out_csr().ptr()[1], SLAB + 2);
            assert_eq!(g.in_degree(1), SLAB);
        }
        for (what, at, v) in cases {
            let mut bad = idx.clone();
            bad[at] = v;
            for r in read_both(&mxg2(n, &ptr, &bad), "slab_idx") {
                assert!(matches!(r, Err(GraphError::Invariant(_))), "{what}");
            }
        }
        // A row that starts exactly at the boundary may open below the
        // previous row's last entry.
        let ptr = ptr_of(&[SLAB, 2, 0, 0]);
        let mut idx = vec![3u32; SLAB + 2];
        idx[SLAB..].copy_from_slice(&[0, 1]);
        for r in read_both(&mxg2(n, &ptr, &idx), "slab_row_start") {
            assert_eq!(r.unwrap().out_neighbors(1), &[0, 1]);
        }
        // ptr[SLAB - 1] > ptr[SLAB]: the fall is between two ptr slabs.
        let n = SLAB as u64 + 4;
        let mut ptr = vec![1u64; SLAB + 5];
        ptr[0] = 0;
        ptr[SLAB] = 0;
        for r in read_both(&mxg2(n, &ptr, &[0]), "slab_ptr") {
            assert!(
                matches!(r, Err(GraphError::Invariant(_))),
                "non-monotone ptr"
            );
        }
        ptr[SLAB] = 1;
        for r in read_both(&mxg2(n, &ptr, &[0]), "slab_ptr_ok") {
            assert_eq!(r.unwrap().in_degree(0), 1);
        }
    }

    #[test]
    fn a_header_declaring_more_edges_than_the_bytes_hold_reserves_nothing_for_them() {
        // m just under the cap: reserving for it would ask for 2 TiB, an
        // allocation failure that aborts the process rather than an error.
        let m = MAX_EDGES - 1;
        let mut bytes = mxg2(1, &[0, m], &[]);
        bytes[12..20].copy_from_slice(&m.to_le_bytes());
        let [streamed, loaded] = read_both(&bytes, "huge_m");
        // A stream proves nothing: it runs dry one slab into idx.
        assert!(matches!(streamed, Err(GraphError::Io(_))), "{streamed:?}");
        // A file's length disproves the header before the payload is read.
        match loaded {
            Err(GraphError::Io(e)) => {
                assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
                assert!(e.to_string().contains("declares"), "{e}");
            }
            other => panic!("expected an io error, got {other:?}"),
        }
        // The same with an ordinary file whose header claims 1000x its edges.
        let mut bytes = Vec::new();
        write_csr(&sized(300, 2000), &mut bytes).unwrap();
        bytes[12..20].copy_from_slice(&2_000_000u64.to_le_bytes());
        for r in read_both(&bytes, "inflated_m") {
            assert!(
                matches!(r, Err(GraphError::Io(_) | GraphError::Invariant(_))),
                "{r:?}"
            );
        }
    }

    #[cfg(unix)]
    #[test]
    fn the_checksum_lane_equals_crc32_at_every_length_and_split() {
        let mut rng = crate::rng::SplitMix64::new(0x1a2e);
        let bytes: Vec<u8> = (0..4096).map(|_| rng.next_u64() as u8).collect();
        let path = std::env::temp_dir().join("mixen_io_crc_lane.bin");
        std::fs::write(&path, &bytes).unwrap();
        let file = std::fs::File::open(&path).unwrap();
        for len in 0..=64 {
            let mut buf = [0u8; 8];
            assert_eq!(
                crc_at(&file, 0, len as u64, &mut buf).unwrap(),
                crc32(&bytes[..len]),
                "len {len}"
            );
        }
        // Random stretches of the file, read through random buffer sizes.
        for _ in 0..200 {
            let end = rng.below(bytes.len() as u64 + 1) as usize;
            let at = rng.below(end as u64 + 1) as usize;
            let mut buf = vec![0u8; 1 + rng.below(300) as usize];
            let got = crc_at(&file, at as u64, (end - at) as u64, &mut buf).unwrap();
            assert_eq!(
                got,
                crc32(&bytes[at..end]),
                "{at}..{end}, buf {}",
                buf.len()
            );
        }
        let short = crc_at(&file, 4090, 11, &mut [0u8; 4]).unwrap_err();
        assert_eq!(short.kind(), io::ErrorKind::UnexpectedEof);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn loaded_in_degrees_equal_from_csr_on_every_profile() {
        for d in crate::Dataset::ALL {
            // `g` counted its in-degrees in `Graph::from_csr`; `want` is a
            // count of its own, edge by edge.
            let g = d.generate(crate::Scale::Tiny, 3);
            let mut want = vec![0; g.n()];
            g.edges().for_each(|(_, v)| want[v as usize] += 1);
            let mut bytes = Vec::new();
            write_csr(&g, &mut bytes).unwrap();
            for r in read_both(&bytes, d.name()) {
                let back = r.unwrap();
                assert!(!back.has_in_csc(), "{}", d.name());
                assert_eq!(back.out_csr(), g.out_csr(), "{}", d.name());
                for u in 0..crate::nid(g.n()) {
                    assert_eq!(back.in_degree(u), g.in_degree(u), "{}: {u}", d.name());
                    assert_eq!(back.in_degree(u), want[u as usize], "{}: {u}", d.name());
                }
            }
        }
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
