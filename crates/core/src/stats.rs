//! Allocation statistics in the shape of the paper's Tables 2 and 3.
//!
//! The paper reports, per benchmark: total allocations, total kbytes
//! allocated (sizes rounded to the nearest multiple of four), the maximum
//! kbytes allocated at any one time, and — for regions — total/maximum
//! region counts and region size statistics.

/// Running allocation statistics.
///
/// `region-core` and `malloc-suite` both maintain one of these, so the
/// benchmark harness can print Table 2 (regions) and Table 3 (malloc) rows
/// from the same structure.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AllocStats {
    /// Total number of allocations performed ("Total allocs").
    pub total_allocs: u64,
    /// Total bytes allocated, each size rounded up to a multiple of four
    /// ("Total kbytes allocated", reported in bytes here).
    pub total_bytes: u64,
    /// Bytes currently allocated (requested, rounded to four).
    pub live_bytes: u64,
    /// High-water mark of [`AllocStats::live_bytes`] ("Max. kbytes
    /// allocated").
    pub max_live_bytes: u64,
    /// Total number of regions ever created ("Total regions"; zero for
    /// malloc-style allocators).
    pub total_regions: u64,
    /// Number of regions currently live.
    pub live_regions: u64,
    /// High-water mark of live regions ("Max. regions").
    pub max_live_regions: u64,
    /// Largest number of requested bytes ever held by a single region
    /// ("Max. kbytes in region").
    pub max_region_bytes: u64,
}

impl AllocStats {
    /// Records an allocation of `size` requested bytes; returns the
    /// four-byte-rounded size that was accounted.
    #[inline]
    pub fn on_alloc(&mut self, size: u32) -> u32 {
        let rounded = size.div_ceil(4) * 4;
        self.total_allocs += 1;
        self.total_bytes += u64::from(rounded);
        self.live_bytes += u64::from(rounded);
        self.max_live_bytes = self.max_live_bytes.max(self.live_bytes);
        rounded
    }

    /// Records freeing `rounded` accounted bytes (a single `free`, or the
    /// whole footprint of a deleted region).
    pub fn on_free(&mut self, rounded: u64) {
        debug_assert!(self.live_bytes >= rounded, "freeing more than live");
        self.live_bytes -= rounded;
    }

    /// Records creation of a region.
    pub fn on_region_created(&mut self) {
        self.total_regions += 1;
        self.live_regions += 1;
        self.max_live_regions = self.max_live_regions.max(self.live_regions);
    }

    /// Records deletion of a region whose accounted footprint was
    /// `region_bytes`.
    pub fn on_region_deleted(&mut self, region_bytes: u64) {
        debug_assert!(self.live_regions > 0);
        self.live_regions -= 1;
        self.on_free(region_bytes);
    }

    /// Notes a region's current footprint for the "Max. kbytes in region"
    /// column.
    #[inline]
    pub fn note_region_bytes(&mut self, region_bytes: u64) {
        self.max_region_bytes = self.max_region_bytes.max(region_bytes);
    }

    /// Average requested bytes per region over all regions ever created
    /// ("Avg. kbytes per region"). Returns 0.0 when no regions were created.
    pub fn avg_bytes_per_region(&self) -> f64 {
        if self.total_regions == 0 {
            0.0
        } else {
            self.total_bytes as f64 / self.total_regions as f64
        }
    }

    /// Average allocations per region ("Avg. allocs per region").
    pub fn avg_allocs_per_region(&self) -> f64 {
        if self.total_regions == 0 {
            0.0
        } else {
            self.total_allocs as f64 / self.total_regions as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_rounds_to_four() {
        let mut s = AllocStats::default();
        assert_eq!(s.on_alloc(1), 4);
        assert_eq!(s.on_alloc(4), 4);
        assert_eq!(s.on_alloc(13), 16);
        assert_eq!(s.total_allocs, 3);
        assert_eq!(s.total_bytes, 24);
        assert_eq!(s.live_bytes, 24);
        assert_eq!(s.max_live_bytes, 24);
    }

    #[test]
    fn free_lowers_live_but_not_max() {
        let mut s = AllocStats::default();
        s.on_alloc(100);
        s.on_alloc(100);
        s.on_free(100);
        assert_eq!(s.live_bytes, 100);
        assert_eq!(s.max_live_bytes, 200);
    }

    #[test]
    fn region_counters() {
        let mut s = AllocStats::default();
        s.on_region_created();
        s.on_region_created();
        assert_eq!(s.live_regions, 2);
        assert_eq!(s.max_live_regions, 2);
        let b = u64::from(s.on_alloc(40));
        s.note_region_bytes(b);
        s.on_region_deleted(b);
        assert_eq!(s.live_regions, 1);
        assert_eq!(s.live_bytes, 0);
        assert_eq!(s.max_region_bytes, 40);
        s.on_region_created();
        assert_eq!(s.total_regions, 3);
        assert_eq!(s.max_live_regions, 2);
    }

    #[test]
    fn averages() {
        let mut s = AllocStats::default();
        assert_eq!(s.avg_bytes_per_region(), 0.0);
        assert_eq!(s.avg_allocs_per_region(), 0.0);
        s.on_region_created();
        s.on_region_created();
        s.on_alloc(8);
        s.on_alloc(8);
        s.on_alloc(8);
        assert_eq!(s.avg_bytes_per_region(), 12.0);
        assert_eq!(s.avg_allocs_per_region(), 1.5);
    }
}
