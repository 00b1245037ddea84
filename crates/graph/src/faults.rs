//! Deterministic I/O fault injection for robustness testing.
//!
//! [`FaultyReader`] and [`FaultyWriter`] wrap any `Read`/`Write` and apply a
//! [`FaultPlan`]: short reads/writes, `ErrorKind::Interrupted` storms,
//! truncation at byte `k`, and bit flips at chosen offsets. Plans are either
//! built explicitly or derived from a seed, and replaying the same plan over
//! the same stream produces byte-identical behavior — a failing corpus case
//! is always reproducible from `(input, plan)`.
//!
//! The contract under test: whatever the plan does, the readers in
//! [`crate::io`] must return `Err(GraphError)` or succeed — never panic.

use crate::nid;
use crate::rng::{SplitMix64, GOLDEN};
use std::io::{self, Read, Write};

/// One scheduled fault.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Fault {
    /// Serve I/O in fragments of at most this many bytes.
    ShortChunks(usize),
    /// Fail the next `count` calls with `ErrorKind::Interrupted` before any
    /// byte moves. Well-behaved callers (e.g. `read_exact`) retry through
    /// these; the plan tests that we do too.
    Interrupted { count: u32 },
    /// Present end-of-stream after this many bytes, regardless of how long
    /// the underlying stream really is.
    TruncateAt(u64),
    /// XOR the byte at stream offset `offset` with `mask` as it passes.
    BitFlip { offset: u64, mask: u8 },
}

/// A deterministic schedule of faults applied to a byte stream.
#[derive(Clone, Debug, Default)]
pub struct FaultPlan {
    chunk_limit: Option<usize>,
    interruptions: u32,
    truncate_at: Option<u64>,
    flips: Vec<(u64, u8)>,
}

impl FaultPlan {
    /// A plan with no faults: the wrapper becomes a transparent adapter.
    pub fn clean() -> Self {
        Self::default()
    }

    /// Builds a plan from explicit faults (later entries override earlier
    /// ones of the same kind; bit flips accumulate).
    pub fn from_faults(faults: impl IntoIterator<Item = Fault>) -> Self {
        let mut plan = Self::default();
        for f in faults {
            match f {
                Fault::ShortChunks(limit) => plan.chunk_limit = Some(limit.max(1)),
                Fault::Interrupted { count } => plan.interruptions = count,
                Fault::TruncateAt(k) => plan.truncate_at = Some(k),
                Fault::BitFlip { offset, mask } => plan.flips.push((offset, mask)),
            }
        }
        plan.flips.sort_unstable();
        plan
    }

    /// Derives a pseudo-random plan from a seed: fragmented I/O, a burst of
    /// interruptions, one bit flip, and (for odd seeds) truncation somewhere
    /// in the first `stream_len` bytes.
    pub fn from_seed(seed: u64, stream_len: u64) -> Self {
        let mut rng = SplitMix64::new(seed ^ GOLDEN);
        let len = stream_len.max(1);
        let mut faults = vec![
            Fault::ShortChunks(1 + (rng.next_u64() % 7) as usize),
            Fault::Interrupted {
                count: nid((rng.next_u64() % 4) as usize),
            },
            Fault::BitFlip {
                offset: rng.next_u64() % len,
                mask: 1 << (rng.next_u64() % 8),
            },
        ];
        if seed % 2 == 1 {
            faults.push(Fault::TruncateAt(rng.next_u64() % len));
        }
        Self::from_faults(faults)
    }

    /// Truncate the stream at byte `k`, with no other faults.
    pub fn truncate_at(k: u64) -> Self {
        Self::from_faults([Fault::TruncateAt(k)])
    }

    /// Flip one bit at `offset`, with no other faults.
    pub fn bit_flip(offset: u64, bit: u8) -> Self {
        Self::from_faults([Fault::BitFlip {
            offset,
            mask: 1 << (bit % 8),
        }])
    }

    /// Fragmented writes of at most `max_chunk` bytes per call — the
    /// short-write plan for checkpoint writers, which must loop until every
    /// byte lands rather than assume one `write` suffices.
    pub fn short_writes(max_chunk: usize) -> Self {
        Self::from_faults([Fault::ShortChunks(max_chunk)])
    }

    /// The disk fills after `k` bytes: every later write is accepted as
    /// `Ok(0)`, which `write_all` surfaces as `ErrorKind::WriteZero`. A
    /// checkpoint writer hitting this must fail typed and leave no torn
    /// file at the final path.
    pub fn disk_full_at(k: u64) -> Self {
        Self::from_faults([Fault::TruncateAt(k)])
    }

    /// Models a torn rename: only the first `k` bytes of the checkpoint
    /// made it to the final path before the crash. Readers must reject the
    /// half-written file with a typed error (truncation or checksum),
    /// never a panic. Byte-wise this is [`FaultPlan::truncate_at`]; the
    /// separate constructor names the scenario the checkpoint corpus
    /// exercises.
    pub fn torn_rename(k: u64) -> Self {
        Self::from_faults([Fault::TruncateAt(k)])
    }
}

/// Shared cursor state for the reader and writer wrappers.
#[derive(Clone, Debug)]
struct FaultState {
    plan: FaultPlan,
    pos: u64,
    pending_interruptions: u32,
}

impl FaultState {
    fn new(plan: FaultPlan) -> Self {
        let pending_interruptions = plan.interruptions;
        Self {
            plan,
            pos: 0,
            pending_interruptions,
        }
    }

    /// Applies pre-transfer faults; returns the allowed transfer size for a
    /// request of `want` bytes (0 means synthetic EOF).
    fn admit(&mut self, want: usize) -> io::Result<usize> {
        if self.pending_interruptions > 0 {
            self.pending_interruptions -= 1;
            return Err(io::Error::new(
                io::ErrorKind::Interrupted,
                "injected interruption",
            ));
        }
        let mut allowed = want;
        if let Some(limit) = self.plan.chunk_limit {
            allowed = allowed.min(limit);
        }
        if let Some(cut) = self.plan.truncate_at {
            let remaining = cut.saturating_sub(self.pos);
            allowed = allowed.min(remaining.min(usize::MAX as u64) as usize);
        }
        Ok(allowed)
    }

    /// Applies bit flips to `buf`, which holds the bytes at stream offsets
    /// `[self.pos, self.pos + buf.len())`, then advances the cursor.
    fn transform(&mut self, buf: &mut [u8]) {
        let start = self.pos;
        let end = start + buf.len() as u64;
        for &(offset, mask) in &self.plan.flips {
            if offset >= start && offset < end {
                buf[(offset - start) as usize] ^= mask;
            }
        }
        self.pos = end;
    }
}

/// A `Read` wrapper that injects the faults of a [`FaultPlan`].
pub struct FaultyReader<R> {
    inner: R,
    state: FaultState,
}

impl<R: Read> FaultyReader<R> {
    pub fn new(inner: R, plan: FaultPlan) -> Self {
        Self {
            inner,
            state: FaultState::new(plan),
        }
    }

    pub fn into_inner(self) -> R {
        self.inner
    }
}

impl<R: Read> Read for FaultyReader<R> {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let allowed = self.state.admit(buf.len())?;
        if allowed == 0 {
            return Ok(0); // synthetic EOF (truncation) or zero-length request
        }
        let n = self.inner.read(&mut buf[..allowed])?;
        self.state.transform(&mut buf[..n]);
        Ok(n)
    }
}

/// A `Write` wrapper that injects the faults of a [`FaultPlan`].
///
/// Truncation surfaces as `Ok(0)`, which `write_all` turns into a
/// `WriteZero` error — mimicking a full disk.
pub struct FaultyWriter<W> {
    inner: W,
    state: FaultState,
}

impl<W: Write> FaultyWriter<W> {
    pub fn new(inner: W, plan: FaultPlan) -> Self {
        Self {
            inner,
            state: FaultState::new(plan),
        }
    }

    pub fn into_inner(self) -> W {
        self.inner
    }
}

impl<W: Write> Write for FaultyWriter<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let allowed = self.state.admit(buf.len())?;
        if allowed == 0 {
            return Ok(0);
        }
        let mut chunk = buf[..allowed].to_vec();
        let pos_before = self.state.pos;
        self.state.transform(&mut chunk);
        let n = self.inner.write(&chunk)?;
        // If the inner writer accepted fewer bytes than transformed, rewind
        // the cursor so flips beyond the accepted prefix can still apply.
        self.state.pos = pos_before + n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DATA: &[u8] = b"the quick brown fox jumps over the lazy dog";

    fn read_all(mut r: impl Read) -> io::Result<Vec<u8>> {
        let mut out = Vec::new();
        loop {
            let mut buf = [0u8; 8];
            match r.read(&mut buf) {
                Ok(0) => return Ok(out),
                Ok(n) => out.extend_from_slice(&buf[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(e),
            }
        }
    }

    #[test]
    fn clean_plan_is_transparent() {
        let r = FaultyReader::new(DATA, FaultPlan::clean());
        assert_eq!(read_all(r).unwrap(), DATA);
    }

    #[test]
    fn truncation_cuts_the_stream() {
        let r = FaultyReader::new(DATA, FaultPlan::truncate_at(9));
        assert_eq!(read_all(r).unwrap(), &DATA[..9]);
    }

    #[test]
    fn bit_flip_corrupts_exactly_one_byte() {
        let r = FaultyReader::new(DATA, FaultPlan::bit_flip(4, 0));
        let got = read_all(r).unwrap();
        assert_eq!(got.len(), DATA.len());
        assert_eq!(got[4], DATA[4] ^ 1);
        let diffs = got.iter().zip(DATA).filter(|(a, b)| a != b).count();
        assert_eq!(diffs, 1);
    }

    #[test]
    fn interruptions_are_survivable_and_finite() {
        let plan = FaultPlan::from_faults([Fault::Interrupted { count: 3 }]);
        let r = FaultyReader::new(DATA, plan);
        assert_eq!(read_all(r).unwrap(), DATA);
    }

    #[test]
    fn short_chunks_still_deliver_everything() {
        let plan = FaultPlan::from_faults([Fault::ShortChunks(1)]);
        let r = FaultyReader::new(DATA, plan);
        assert_eq!(read_all(r).unwrap(), DATA);
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        for seed in 0..20 {
            let a = FaultPlan::from_seed(seed, DATA.len() as u64);
            let ra = FaultyReader::new(DATA, a);
            let rb = FaultyReader::new(DATA, FaultPlan::from_seed(seed, DATA.len() as u64));
            assert_eq!(read_all(ra).unwrap(), read_all(rb).unwrap(), "seed {seed}");
        }
    }

    #[test]
    fn writer_truncation_surfaces_as_write_zero() {
        let mut sink = Vec::new();
        let mut w = FaultyWriter::new(&mut sink, FaultPlan::truncate_at(5));
        let err = w.write_all(DATA).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::WriteZero);
        assert_eq!(sink, &DATA[..5]);
    }

    #[test]
    fn writer_bit_flip_lands_at_offset() {
        let mut sink = Vec::new();
        {
            let mut w = FaultyWriter::new(&mut sink, FaultPlan::bit_flip(2, 7));
            w.write_all(DATA).unwrap();
        }
        assert_eq!(sink[2], DATA[2] ^ 0x80);
    }
}
