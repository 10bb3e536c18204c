//! Cache geometry and policy configuration.

/// What a write does on a miss.
///
/// The paper assumes a **write-around** L1 ("assuming a write-around cache,
/// so A does not interfere"): a write that misses is sent on without
/// allocating a line, so stores to the output array never evict the input
/// array's tile. Write-allocate is provided for ablations.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WritePolicy {
    /// Write misses do not allocate a cache line (no-write-allocate).
    WriteAround,
    /// Write misses fetch and allocate the line, like reads.
    WriteAllocate,
}

/// Geometry and policy of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes: a whole number of lines, not necessarily a
    /// power of two (a 48 KB 12-way cache has 64 sets).
    pub size_bytes: usize,
    /// Line (block) size in bytes. Must be a power of two dividing
    /// `size_bytes`.
    pub line_bytes: usize,
    /// Associativity (`1` = direct-mapped). Must divide the number of lines.
    /// A set of several ways replaces its least recently used line.
    pub ways: usize,
    /// Behaviour of writes that miss.
    pub write_policy: WritePolicy,
}

impl CacheConfig {
    /// The 16KB direct-mapped, 32-byte-line UltraSparc2 L1 data cache
    /// simulated throughout the paper, with the write-around policy the
    /// paper's analysis assumes. Holds 2048 double-precision words.
    pub const ULTRASPARC2_L1: CacheConfig = CacheConfig {
        size_bytes: 16 * 1024,
        line_bytes: 32,
        ways: 1,
        write_policy: WritePolicy::WriteAround,
    };

    /// The 2MB direct-mapped external UltraSparc2 L2 cache (64-byte lines).
    pub const ULTRASPARC2_L2: CacheConfig = CacheConfig {
        size_bytes: 2 * 1024 * 1024,
        line_bytes: 64,
        ways: 1,
        write_policy: WritePolicy::WriteAllocate,
    };

    /// Creates a direct-mapped, write-around cache — the configuration the
    /// paper's tile-selection algorithms target.
    pub fn direct_mapped(size_bytes: usize, line_bytes: usize) -> Self {
        CacheConfig {
            size_bytes,
            line_bytes,
            ways: 1,
            write_policy: WritePolicy::WriteAround,
        }
    }

    /// Capacity in lines.
    pub fn num_lines(&self) -> usize {
        self.size_bytes / self.line_bytes
    }

    /// Number of sets (`lines / ways`).
    pub fn num_sets(&self) -> usize {
        self.num_lines() / self.ways
    }

    /// Capacity in `f64` elements — the unit the paper's algorithms use
    /// (e.g. a "16K cache which holds 2048 array elements").
    pub fn capacity_elements(&self) -> usize {
        self.size_bytes / std::mem::size_of::<f64>()
    }

    /// Validates the geometry; called by [`crate::Cache::new`].
    ///
    /// Indexing needs power-of-two lines and sets, not capacity, so a
    /// capacity such as 48 KB is valid when its set count is a power of two.
    ///
    /// # Errors
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.line_bytes.is_power_of_two() {
            return Err(format!("line_bytes {} not a power of two", self.line_bytes));
        }
        if self.line_bytes > self.size_bytes || !self.size_bytes.is_multiple_of(self.line_bytes) {
            return Err(format!(
                "size_bytes {} is not a whole number of {}-byte lines",
                self.size_bytes, self.line_bytes
            ));
        }
        if self.ways == 0 || !self.num_lines().is_multiple_of(self.ways) {
            return Err(format!(
                "ways {} must be nonzero and divide the line count {}",
                self.ways,
                self.num_lines()
            ));
        }
        if !self.num_sets().is_power_of_two() {
            return Err(format!("set count {} not a power of two", self.num_sets()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ultrasparc_presets_are_the_papers_geometry() {
        let l1 = CacheConfig::ULTRASPARC2_L1;
        assert_eq!(l1.capacity_elements(), 2048); // "holds 2048 doubles"
        assert_eq!(l1.num_lines(), 512);
        assert_eq!(l1.num_sets(), 512);
        assert!(l1.validate().is_ok());

        let l2 = CacheConfig::ULTRASPARC2_L2;
        assert_eq!(l2.capacity_elements(), 262_144);
        // sqrt(262144) = 512; the paper's "362 x 362 x M" L2 bound is
        // sqrt(C/2) = 362.03...
        assert_eq!(
            (l2.capacity_elements() / 2) as f64,
            362.038672_f64.powi(2).round()
        );
        assert!(l2.validate().is_ok());
    }

    #[test]
    fn validate_rejects_bad_geometry() {
        let mut c = CacheConfig::direct_mapped(1000, 32);
        assert!(c.validate().is_err()); // not a whole number of lines
        c = CacheConfig::direct_mapped(96, 32);
        assert!(c.validate().is_err()); // 3 sets
        c = CacheConfig::direct_mapped(1024, 48);
        assert!(c.validate().is_err()); // non power of two line
        c = CacheConfig::direct_mapped(1024, 2048);
        assert!(c.validate().is_err()); // line bigger than cache
        c = CacheConfig::ULTRASPARC2_L1;
        c.ways = 3;
        assert!(c.validate().is_err()); // ways must divide lines
        c.ways = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn host_shaped_capacity_is_valid_when_sets_are_a_power_of_two() {
        // A 48 KB, 12-way L1 with 64-byte lines: 768 lines in 64 sets.
        let mut c = CacheConfig::direct_mapped(48 * 1024, 64);
        c.ways = 12;
        assert!(c.validate().is_ok());
        assert_eq!((c.num_lines(), c.num_sets()), (768, 64));
        c.ways = 8; // 96 sets
        assert!(c.validate().is_err());
        c.ways = 1; // 768 sets
        assert!(c.validate().is_err());
    }

    #[test]
    fn fully_associative_is_valid() {
        let mut c = CacheConfig::direct_mapped(4096, 32);
        c.ways = c.num_lines();
        assert!(c.validate().is_ok());
        assert_eq!(c.num_sets(), 1);
    }
}
