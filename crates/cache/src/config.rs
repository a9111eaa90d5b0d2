//! Cache geometry and read-path configuration.

use std::error::Error;
use std::fmt;

/// How the data array is read relative to tag comparison (§III-A).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum AccessMode {
    /// Fast/parallel access: all `k` data ways are read speculatively while
    /// tags compare — the mode that creates concealed reads.
    #[default]
    Parallel,
    /// Serial (tag-first) access: only the matching way is read after tag
    /// comparison — no concealed reads, longer access time.
    Serial,
}

impl fmt::Display for AccessMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AccessMode::Parallel => f.write_str("parallel"),
            AccessMode::Serial => f.write_str("serial"),
        }
    }
}

/// Geometry and behaviour of one cache level.
///
/// Write policy is write-back with write-allocate throughout, matching
/// Table I of the paper.
///
/// # Examples
///
/// ```
/// use reap_cache::CacheConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let l1 = CacheConfig::builder()
///     .name("L1D")
///     .size_bytes(32 * 1024)
///     .associativity(4)
///     .block_bytes(64)
///     .build()?;
/// assert_eq!(l1.num_sets(), 128);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheConfig {
    name: String,
    size_bytes: usize,
    associativity: usize,
    block_bytes: usize,
    access_mode: AccessMode,
    /// `log2(block_bytes)`: the byte-offset bits below a line address.
    block_shift: u32,
    /// `log2(num_sets())`: the set-index bits below a tag.
    set_shift: u32,
}

impl CacheConfig {
    /// Starts building a configuration.
    pub fn builder() -> CacheConfigBuilder {
        CacheConfigBuilder::default()
    }

    /// Human-readable level name (e.g. `"L2"`).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Total capacity in bytes.
    pub fn size_bytes(&self) -> usize {
        self.size_bytes
    }

    /// Ways per set (`k`).
    pub fn associativity(&self) -> usize {
        self.associativity
    }

    /// Block (line) size in bytes.
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    /// Read-path mode.
    pub fn access_mode(&self) -> AccessMode {
        self.access_mode
    }

    /// Number of sets.
    pub fn num_sets(&self) -> usize {
        1 << self.set_shift
    }

    /// Total number of lines.
    pub fn num_lines(&self) -> usize {
        self.size_bytes >> self.block_shift
    }

    /// Data bits per line.
    pub fn line_bits(&self) -> usize {
        self.block_bytes * 8
    }

    /// Splits a byte address into `(tag, set_index)`: the line address
    /// is `address / block_bytes`, its set is `line % num_sets()` and its
    /// tag `line / num_sets()`.
    ///
    /// [`build`](CacheConfigBuilder::build) admits only power-of-two
    /// block sizes and set counts, which lets the split be two shifts
    /// and a mask. The tag keeps the
    /// `64 - log2(block_bytes) - log2(num_sets())` high address bits; it
    /// spans all 64 only for 1-byte blocks in a single set.
    #[inline]
    pub fn split_address(&self, address: u64) -> (u64, usize) {
        let line = address >> self.block_shift;
        let set = (line & ((1u64 << self.set_shift) - 1)) as usize;
        (line >> self.set_shift, set)
    }

    /// Reconstructs the line-granular address from `(tag, set_index)`,
    /// the inverse of [`split_address`](Self::split_address) on its
    /// outputs.
    #[inline]
    pub fn join_address(&self, tag: u64, set: usize) -> u64 {
        ((tag << self.set_shift) | set as u64) << self.block_shift
    }
}

/// Builder for [`CacheConfig`]; validated on [`build`](Self::build).
#[derive(Debug, Clone, Default)]
pub struct CacheConfigBuilder {
    name: Option<String>,
    size_bytes: Option<usize>,
    associativity: Option<usize>,
    block_bytes: Option<usize>,
    access_mode: AccessMode,
}

impl CacheConfigBuilder {
    /// Sets the level name.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = Some(name.into());
        self
    }

    /// Sets total capacity in bytes.
    pub fn size_bytes(mut self, size: usize) -> Self {
        self.size_bytes = Some(size);
        self
    }

    /// Sets the associativity `k`.
    pub fn associativity(mut self, ways: usize) -> Self {
        self.associativity = Some(ways);
        self
    }

    /// Sets the block size in bytes.
    pub fn block_bytes(mut self, bytes: usize) -> Self {
        self.block_bytes = Some(bytes);
        self
    }

    /// Sets the read-path mode (default: [`AccessMode::Parallel`]).
    pub fn access_mode(mut self, mode: AccessMode) -> Self {
        self.access_mode = mode;
        self
    }

    /// Validates and produces the configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] if a required field is missing, a size is
    /// not a power of two, or the geometry does not divide evenly.
    pub fn build(self) -> Result<CacheConfig, ConfigError> {
        let name = self
            .name
            .ok_or(ConfigError::MissingField { field: "name" })?;
        let size_bytes = self.size_bytes.ok_or(ConfigError::MissingField {
            field: "size_bytes",
        })?;
        let associativity = self.associativity.ok_or(ConfigError::MissingField {
            field: "associativity",
        })?;
        let block_bytes = self.block_bytes.ok_or(ConfigError::MissingField {
            field: "block_bytes",
        })?;
        if block_bytes == 0 || !block_bytes.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                field: "block_bytes",
                value: block_bytes,
            });
        }
        if associativity == 0 {
            return Err(ConfigError::ZeroField {
                field: "associativity",
            });
        }
        if size_bytes == 0 || size_bytes % (block_bytes * associativity) != 0 {
            return Err(ConfigError::GeometryMismatch {
                size_bytes,
                block_bytes,
                associativity,
            });
        }
        let sets = size_bytes / (block_bytes * associativity);
        if !sets.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                field: "num_sets",
                value: sets,
            });
        }
        Ok(CacheConfig {
            name,
            size_bytes,
            associativity,
            block_bytes,
            access_mode: self.access_mode,
            block_shift: block_bytes.trailing_zeros(),
            set_shift: sets.trailing_zeros(),
        })
    }
}

/// Error validating a [`CacheConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum ConfigError {
    /// A required builder field was not provided.
    MissingField {
        /// Field name.
        field: &'static str,
    },
    /// A field that must be a power of two is not.
    NotPowerOfTwo {
        /// Field name.
        field: &'static str,
        /// Offending value.
        value: usize,
    },
    /// A field that must be non-zero is zero.
    ZeroField {
        /// Field name.
        field: &'static str,
    },
    /// Capacity does not divide into an integral number of sets.
    GeometryMismatch {
        /// Requested capacity.
        size_bytes: usize,
        /// Requested block size.
        block_bytes: usize,
        /// Requested associativity.
        associativity: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::MissingField { field } => write!(f, "missing required field `{field}`"),
            ConfigError::NotPowerOfTwo { field, value } => {
                write!(f, "`{field}` must be a power of two, got {value}")
            }
            ConfigError::ZeroField { field } => write!(f, "`{field}` must be non-zero"),
            ConfigError::GeometryMismatch {
                size_bytes,
                block_bytes,
                associativity,
            } => write!(
                f,
                "capacity {size_bytes} B does not divide into sets of \
                 {associativity} x {block_bytes} B blocks"
            ),
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    fn l2() -> CacheConfig {
        CacheConfig::builder()
            .name("L2")
            .size_bytes(1 << 20)
            .associativity(8)
            .block_bytes(64)
            .build()
            .unwrap()
    }

    #[test]
    fn paper_l2_geometry() {
        let c = l2();
        assert_eq!(c.num_sets(), 2048);
        assert_eq!(c.num_lines(), 16384);
        assert_eq!(c.line_bits(), 512);
        assert_eq!(c.access_mode(), AccessMode::Parallel);
    }

    #[test]
    fn address_split_join_round_trips() {
        let c = l2();
        for addr in [0u64, 64, 0x1234_5678 & !63, 0xFFFF_FFC0] {
            let (tag, set) = c.split_address(addr);
            assert_eq!(c.join_address(tag, set), addr & !(64 - 1));
        }
    }

    #[test]
    fn same_set_different_tag() {
        let c = l2();
        let (t1, s1) = c.split_address(0);
        let (t2, s2) = c.split_address(2048 * 64);
        assert_eq!(s1, s2);
        assert_ne!(t1, t2);
    }

    #[test]
    fn missing_fields_are_reported() {
        let err = CacheConfig::builder().build().unwrap_err();
        assert_eq!(err, ConfigError::MissingField { field: "name" });
    }

    #[test]
    fn bad_block_size_rejected() {
        let err = CacheConfig::builder()
            .name("x")
            .size_bytes(1024)
            .associativity(2)
            .block_bytes(48)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ConfigError::NotPowerOfTwo {
                field: "block_bytes",
                ..
            }
        ));
    }

    #[test]
    fn geometry_mismatch_rejected() {
        let err = CacheConfig::builder()
            .name("x")
            .size_bytes(1000)
            .associativity(2)
            .block_bytes(64)
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::GeometryMismatch { .. }));
    }

    #[test]
    fn zero_associativity_rejected() {
        let err = CacheConfig::builder()
            .name("x")
            .size_bytes(1024)
            .associativity(0)
            .block_bytes(64)
            .build()
            .unwrap_err();
        assert!(matches!(err, ConfigError::ZeroField { .. }));
    }

    #[test]
    fn non_power_of_two_sets_rejected() {
        // 3 * 64 * 4 = 768 bytes => 3 sets.
        let err = CacheConfig::builder()
            .name("x")
            .size_bytes(768)
            .associativity(4)
            .block_bytes(64)
            .build()
            .unwrap_err();
        assert!(matches!(
            err,
            ConfigError::NotPowerOfTwo {
                field: "num_sets",
                ..
            }
        ));
    }

    #[test]
    fn error_messages_are_lowercase() {
        let e = ConfigError::MissingField { field: "name" };
        assert!(e.to_string().starts_with("missing"));
    }

    #[test]
    fn display_of_access_modes() {
        assert_eq!(AccessMode::Parallel.to_string(), "parallel");
        assert_eq!(AccessMode::Serial.to_string(), "serial");
    }
}
