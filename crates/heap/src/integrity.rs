//! Media-integrity layer: CRC32 page sidecars, versioned pool headers, and
//! scrubbing.
//!
//! The crash model in [`crate::faults`] covers *ordering* failures — writes
//! that never landed or landed torn. This module covers *media* failures:
//! bits that decay after they were durably written. No write-ordering
//! discipline defends against those; they have to be detected. The defense
//! here is the classic storage-stack one:
//!
//! - every pool page carries a CRC32 in a **sidecar** (simulating the
//!   out-of-band metadata an NVM controller or DIMM ECC region would hold);
//! - CRCs are *sealed* at quiesce points — [`crate::AddressSpace::restart`]
//!   (power cycle) and [`crate::AddressSpace::detach`] — and *verified* on
//!   re-attach, so corruption is caught before any read returns garbage;
//! - a scrub pass re-verifies sealed pages on demand, the background
//!   patrol read of real devices;
//! - the pool header itself is versioned (magic, format version, size,
//!   header CRC) and validated by [`crate::alloc::Region::open`].
//!
//! This module holds the pieces — the checksum, the sidecar, the verdict
//! kernel. The mechanism that seals, verifies, scrubs and names the bad
//! pages is the media plane (`media.rs::MediaPlane`), one implementation
//! that owned pools ([`crate::pool::PoolStore`]) and shared pools
//! ([`crate::shard::SharedPool`]) both run.
//!
//! Detection degrades gracefully instead of panicking: the first bad page
//! the plane reports quarantines its pool, so normal access returns
//! [`crate::HeapError::MediaCorruption`], while the salvage path
//! ([`crate::alloc::Region::salvage`]) re-walks allocator block
//! headers/footers to enumerate what is still intact.
//!
//! The CRC32 is hand-rolled (reflected polynomial `0xEDB88320`, the
//! IEEE/zlib one) per the workspace's zero-dependency policy.

use std::collections::HashMap;

/// Current on-media pool format version, stored in the pool header and
/// checked on open. Version 1 was the unversioned PR-3 layout; version 2
/// added the versioned header word itself.
pub const FORMAT_VERSION: u32 = 2;

/// Whether the pool store maintains per-page checksums.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum IntegrityMode {
    /// No sidecar: writes are cheapest, media decay is silent. Kept for
    /// the CRC-overhead baseline measurement.
    Off,
    /// CRC32 sidecar per page, sealed at quiesce points and verified on
    /// attach (the default).
    #[default]
    Crc,
}

const CRC_POLY: u32 = 0xEDB8_8320;

const fn build_crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { CRC_POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

static CRC_TABLE: [u32; 256] = build_crc_table();

/// CRC32 (IEEE, reflected) of `bytes`.
///
/// # Examples
///
/// ```
/// use utpr_heap::integrity::crc32;
/// assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
/// ```
#[inline]
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = !0u32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ u32::from(b)) & 0xff) as usize] ^ (c >> 8);
    }
    !c
}

/// A pool's CRC sidecar: page number → checksum of the page as last sealed.
#[derive(Clone, Debug, Default)]
pub struct PageCrcs {
    map: HashMap<u64, u32>,
}

impl PageCrcs {
    /// An empty sidecar.
    pub fn new() -> Self {
        PageCrcs::default()
    }

    /// Records `page`'s checksum.
    pub fn seal(&mut self, page: u64, crc: u32) {
        self.map.insert(page, crc);
    }

    /// The sealed checksum of `page`, if it has one.
    #[inline]
    pub fn get(&self, page: u64) -> Option<u32> {
        self.map.get(&page).copied()
    }

    /// Sealed page numbers, sorted (deterministic verification order).
    pub fn sealed_pages(&self) -> Vec<u64> {
        let mut pages: Vec<u64> = self.map.keys().copied().collect();
        pages.sort_unstable();
        pages
    }

    /// Number of sealed pages.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is sealed.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Drops every sealed checksum.
    pub fn clear(&mut self) {
        self.map.clear();
    }
}

/// Per-page outcome of one scrub visit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum PageVerdict {
    /// Checksum matched; no action needed.
    Clean,
    /// Checksum matched but the page was past its refresh age, so it was
    /// preventively rewritten (reprogrammed in place), resetting its decay
    /// clock before the decay window could expire.
    Repaired,
    /// Checksum mismatched: the page's pool is quarantined and must go
    /// through the salvage path.
    Quarantined,
}

/// Classifies sealed pages against their sidecar checksums — the single
/// verdict kernel of every scrub, offline ([`crate::pool::PoolStore::scrub`])
/// or online ([`crate::scrub::Scrubber`]), so all paths agree on what
/// "clean / repaired / quarantined" means.
///
/// `pages` yields `(page_number, sealed_crc, page_bytes)` — `None` bytes
/// mean the page was never materialized and verifies as all-zero.
/// `refresh_due(page)` asks whether a *clean* page should be refreshed;
/// callers without age information pass `|_| false` and never see
/// [`PageVerdict::Repaired`]. The caller applies the verdicts (rewrite,
/// quarantine); this kernel only decides them.
pub fn classify_pages<'a, I, F>(pages: I, mut refresh_due: F) -> Vec<(u64, PageVerdict)>
where
    I: Iterator<Item = (u64, u32, Option<&'a [u8]>)>,
    F: FnMut(u64) -> bool,
{
    const ZERO_PAGE: [u8; crate::pagestore::PAGE_SIZE as usize] =
        [0u8; crate::pagestore::PAGE_SIZE as usize];
    pages
        .map(|(page, sealed, bytes)| {
            let actual = crc32(bytes.unwrap_or(&ZERO_PAGE));
            let verdict = if actual != sealed {
                PageVerdict::Quarantined
            } else if refresh_due(page) {
                PageVerdict::Repaired
            } else {
                PageVerdict::Clean
            };
            (page, verdict)
        })
        .collect()
}

/// Result of scrubbing one pool.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PoolScrub {
    /// Sealed pages whose checksums were re-verified.
    pub pages_scanned: u64,
    /// Bytes covered by the scan.
    pub bytes_scanned: u64,
    /// First page that failed verification, if any (the pool is then
    /// quarantined).
    pub corrupt_page: Option<u64>,
    /// Per-page verdict of every sealed page visited, in page order.
    pub verdicts: Vec<(u64, PageVerdict)>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_reference_vectors() {
        // The standard check value for CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414F_A339);
    }

    #[test]
    fn crc32_detects_any_single_bit_flip_in_a_page() {
        let mut page = vec![0u8; 4096];
        for (i, b) in page.iter_mut().enumerate() {
            *b = (i % 251) as u8;
        }
        let sealed = crc32(&page);
        for probe in [0usize, 1, 511, 4095] {
            for bit in 0..8 {
                page[probe] ^= 1 << bit;
                assert_ne!(crc32(&page), sealed, "flip at {probe}:{bit} undetected");
                page[probe] ^= 1 << bit;
            }
        }
        assert_eq!(crc32(&page), sealed);
    }

    #[test]
    fn classify_pages_issues_all_three_verdicts() {
        let good = vec![7u8; 4096];
        let bad = vec![8u8; 4096];
        let pages = vec![
            (0u64, crc32(&good), Some(good.as_slice())), // clean
            (1u64, crc32(&good), Some(good.as_slice())), // clean but stale -> repaired
            (2u64, crc32(&good), Some(bad.as_slice())),  // mismatch -> quarantined
            (3u64, crc32(&[0u8; 4096]), None),           // unmaterialized verifies as zero
        ];
        let verdicts = classify_pages(pages.into_iter(), |p| p == 1);
        assert_eq!(
            verdicts,
            vec![
                (0, PageVerdict::Clean),
                (1, PageVerdict::Repaired),
                (2, PageVerdict::Quarantined),
                (3, PageVerdict::Clean),
            ]
        );
    }

    #[test]
    fn sidecar_round_trips_and_orders_pages() {
        let mut s = PageCrcs::new();
        assert!(s.is_empty());
        s.seal(9, 0xAA);
        s.seal(2, 0xBB);
        s.seal(9, 0xCC); // reseal overwrites
        assert_eq!(s.get(9), Some(0xCC));
        assert_eq!(s.get(3), None);
        assert_eq!(s.sealed_pages(), vec![2, 9]);
        assert_eq!(s.len(), 2);
        s.clear();
        assert!(s.is_empty());
    }
}
