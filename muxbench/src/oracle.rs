//! A shadow model of every file's content.
//!
//! Each write is given a fresh generation number, and the byte at offset
//! `x` of a file is a hash of (seed, file uid, generation, `x`). The model
//! keeps, per file, the size and the generation of every 4 KiB block, so
//! the expected content of any read can be recomputed. Unlike
//! `workloads::pattern_at`, which depends on the offset alone, a block
//! served from the wrong file or from an older write at the same offset
//! does not match.

use crate::workload::splitmix64 as mix;

/// Granularity at which generations are tracked.
pub const BLOCK: u64 = 4096;

/// Fills `buf` with the content generation `gen` of file `uid` has at
/// offset `off`. Generation 0 is "never written" and reads as zeros.
pub fn fill(seed: u64, uid: u32, gen: u32, off: u64, buf: &mut [u8]) {
    if gen == 0 {
        buf.fill(0);
        return;
    }
    let key = mix(seed ^ mix(((uid as u64) << 32) | gen as u64));
    let mut x = off;
    let mut i = 0;
    while i < buf.len() {
        let word = mix(key ^ (x >> 3)).to_le_bytes();
        let lo = (x & 7) as usize;
        let n = (8 - lo).min(buf.len() - i);
        buf[i..i + n].copy_from_slice(&word[lo..lo + n]);
        i += n;
        x += n as u64;
    }
}

#[derive(Debug, Clone)]
struct FileModel {
    size: u64,
    gens: Vec<u32>,
    /// False once an op on the file failed: its content is then unknown
    /// and it is no longer checked.
    known: bool,
}

/// Where a read's bytes first differed from the model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mismatch {
    /// File uid.
    pub uid: u32,
    /// Offset of the first wrong byte.
    pub off: u64,
    /// Byte expected there.
    pub expected: u8,
    /// Byte read.
    pub got: u8,
}

/// The shadow model: one entry per file uid ever created.
#[derive(Debug)]
pub struct Oracle {
    seed: u64,
    files: Vec<Option<FileModel>>,
    next_gen: u32,
    scratch: Vec<u8>,
}

impl Oracle {
    /// An empty model whose content hash is keyed by `seed`.
    pub fn new(seed: u64) -> Self {
        Oracle {
            seed,
            files: Vec::new(),
            next_gen: 1,
            scratch: Vec::new(),
        }
    }

    /// Records that file `uid` now exists, empty.
    pub fn create(&mut self, uid: u32) {
        let i = uid as usize;
        if self.files.len() <= i {
            self.files.resize(i + 1, None);
        }
        self.files[i] = Some(FileModel {
            size: 0,
            gens: Vec::new(),
            known: true,
        });
    }

    /// Records that file `uid` is gone.
    pub fn unlink(&mut self, uid: u32) {
        if let Some(f) = self.files.get_mut(uid as usize) {
            *f = None;
        }
    }

    /// Stops checking file `uid` (an op on it failed).
    pub fn forget(&mut self, uid: u32) {
        if let Some(Some(f)) = self.files.get_mut(uid as usize) {
            f.known = false;
        }
    }

    /// Whether `uid` exists and its content is known.
    pub fn is_known(&self, uid: u32) -> bool {
        matches!(self.files.get(uid as usize), Some(Some(f)) if f.known)
    }

    /// The model's size of `uid` (0 when absent).
    pub fn size(&self, uid: u32) -> u64 {
        match self.files.get(uid as usize) {
            Some(Some(f)) => f.size,
            _ => 0,
        }
    }

    /// Sum of the sizes of every live file.
    pub fn live_bytes(&self) -> u64 {
        self.files.iter().flatten().map(|f| f.size).sum()
    }

    /// Uids of every live file, ascending.
    pub fn live_uids(&self) -> Vec<u32> {
        (0..self.files.len() as u32)
            .filter(|&u| self.files[u as usize].is_some())
            .collect()
    }

    /// Assigns a new generation to `[off, off + len)` of `uid` and fills
    /// `data` (length `len`) with the bytes to write. The write must start
    /// on a block boundary and either end on one or reach the new end of
    /// file, so that every block keeps one generation.
    pub fn write(&mut self, uid: u32, off: u64, data: &mut [u8]) {
        let seed = self.seed;
        let gen = self.next_gen;
        self.next_gen += 1;
        let f = self.files[uid as usize]
            .as_mut()
            .expect("write to a file the model does not have");
        let end = off + data.len() as u64;
        assert!(
            off.is_multiple_of(BLOCK) && (end.is_multiple_of(BLOCK) || end >= f.size),
            "write [{off}, {end}) of a {}-byte file does not keep one generation per block",
            f.size
        );
        let (b0, b1) = (off / BLOCK, end.div_ceil(BLOCK));
        if f.gens.len() < b1 as usize {
            f.gens.resize(b1 as usize, 0);
        }
        f.gens[b0 as usize..b1 as usize].fill(gen);
        f.size = f.size.max(end);
        fill(seed, uid, gen, off, data);
    }

    /// How many bytes a read of `len` at `off` must return.
    pub fn expected_len(&self, uid: u32, off: u64, len: usize) -> usize {
        self.size(uid).saturating_sub(off).min(len as u64) as usize
    }

    /// Checks bytes read from `uid` at `off` against the model. Files whose
    /// content is unknown pass.
    pub fn check(&mut self, uid: u32, off: u64, got: &[u8]) -> Result<(), Mismatch> {
        let seed = self.seed;
        let Some(Some(f)) = self.files.get(uid as usize) else {
            return Ok(());
        };
        if !f.known {
            return Ok(());
        }
        let mut pos = off;
        let end = off + got.len() as u64;
        while pos < end {
            let blk = pos / BLOCK;
            let chunk_end = ((blk + 1) * BLOCK).min(end);
            let gen = f.gens.get(blk as usize).copied().unwrap_or(0);
            let n = (chunk_end - pos) as usize;
            self.scratch.resize(n, 0);
            fill(seed, uid, gen, pos, &mut self.scratch);
            let have = &got[(pos - off) as usize..(chunk_end - off) as usize];
            if let Some(i) = (0..n).find(|&i| have[i] != self.scratch[i]) {
                return Err(Mismatch {
                    uid,
                    off: pos + i as u64,
                    expected: self.scratch[i],
                    got: have[i],
                });
            }
            pos = chunk_end;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fill_is_offset_consistent() {
        let mut whole = vec![0u8; 100];
        fill(7, 3, 9, 1000, &mut whole);
        let mut part = vec![0u8; 37];
        fill(7, 3, 9, 1013, &mut part);
        assert_eq!(&whole[13..50], &part[..]);
    }

    #[test]
    fn oracle_accepts_what_was_written() {
        let mut o = Oracle::new(1);
        o.create(0);
        let mut d = vec![0u8; 2 * BLOCK as usize];
        o.write(0, 0, &mut d);
        let mut d2 = vec![0u8; BLOCK as usize];
        o.write(0, BLOCK, &mut d2);
        let mut both = d[..BLOCK as usize].to_vec();
        both.extend_from_slice(&d2);
        assert_eq!(o.check(0, 0, &both), Ok(()));
        assert_eq!(
            o.expected_len(0, BLOCK, 10 * BLOCK as usize),
            BLOCK as usize
        );
    }

    #[test]
    fn oracle_flags_a_planted_wrong_byte() {
        let mut o = Oracle::new(1);
        o.create(0);
        let mut d = vec![0u8; 5000];
        o.write(0, 0, &mut d);
        d[4321] ^= 0x01;
        let err = o.check(0, 0, &d).unwrap_err();
        assert_eq!(err.off, 4321);
        assert_eq!(err.got, err.expected ^ 0x01);
    }

    #[test]
    fn oracle_flags_another_files_block_at_the_same_offset() {
        let mut o = Oracle::new(1);
        o.create(0);
        o.create(1);
        let mut a = vec![0u8; BLOCK as usize];
        let mut b = vec![0u8; BLOCK as usize];
        o.write(0, 0, &mut a);
        o.write(1, 0, &mut b);
        assert!(o.check(0, 0, &b).is_err());
        assert!(o.check(1, 0, &a).is_err());
    }

    #[test]
    fn oracle_flags_a_stale_generation() {
        let mut o = Oracle::new(1);
        o.create(0);
        let mut old = vec![0u8; BLOCK as usize];
        o.write(0, 0, &mut old);
        let mut new = vec![0u8; BLOCK as usize];
        o.write(0, 0, &mut new);
        assert!(o.check(0, 0, &old).is_err());
        assert_eq!(o.check(0, 0, &new), Ok(()));
    }

    #[test]
    fn forgotten_files_are_not_checked() {
        let mut o = Oracle::new(1);
        o.create(0);
        let mut d = vec![0u8; 10];
        o.write(0, 0, &mut d);
        o.forget(0);
        assert!(!o.is_known(0));
        assert_eq!(o.check(0, 0, &[0xAB; 10]), Ok(()));
    }
}
