//! Declarative workload specifications and the YCSB core presets.

/// Which request distribution drives key selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Distribution {
    /// Uniform over all records.
    Uniform,
    /// Scrambled zipfian (YCSB default for A/B).
    Zipfian,
    /// Skewed towards recently inserted records (workload D).
    Latest,
    /// Hot set: 10% of records get 90% of requests.
    Hotspot,
    /// Exponential (front-loaded).
    Exponential,
}

/// Operation mix proportions. Must sum to (approximately) 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpMix {
    /// Point reads.
    pub read: f64,
    /// Full-document updates.
    pub update: f64,
    /// New-record inserts.
    pub insert: f64,
    /// Short range scans.
    pub scan: f64,
    /// Read-modify-write transactions.
    pub read_modify_write: f64,
}

impl OpMix {
    /// Validates the proportions (non-negative, sum ≈ 1).
    pub fn validate(&self) -> Result<(), String> {
        let parts = [self.read, self.update, self.insert, self.scan, self.read_modify_write];
        if parts.iter().any(|&p| p < 0.0) {
            return Err("operation proportions must be non-negative".to_string());
        }
        let sum: f64 = parts.iter().sum();
        if (sum - 1.0).abs() > 1e-6 {
            return Err(format!("operation proportions sum to {sum}, expected 1.0"));
        }
        Ok(())
    }
}

/// The six YCSB core workloads plus two Chronos scenario-pack mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoreWorkload {
    /// A: update heavy (50/50 read/update), zipfian.
    A,
    /// B: read mostly (95/5 read/update), zipfian.
    B,
    /// C: read only, zipfian.
    C,
    /// D: read latest (95/5 read/insert), latest distribution.
    D,
    /// E: short ranges (95/5 scan/insert), zipfian.
    E,
    /// F: read-modify-write (50/50 read/rmw), zipfian.
    F,
    /// sh: scan heavy (70/25/5 scan/read/insert), hotspot — range-query
    /// pressure with a skewed hot set, for index/iterator evaluations.
    ScanHeavy,
    /// rmw: read-modify-write heavy (70/20/10 rmw/read/update), zipfian —
    /// contended write transactions, for locking/MVCC evaluations.
    ReadModifyWriteHeavy,
}

impl CoreWorkload {
    /// Every workload, in canonical-name order.
    pub const ALL: [CoreWorkload; 8] = [
        CoreWorkload::A,
        CoreWorkload::B,
        CoreWorkload::C,
        CoreWorkload::D,
        CoreWorkload::E,
        CoreWorkload::F,
        CoreWorkload::ScanHeavy,
        CoreWorkload::ReadModifyWriteHeavy,
    ];

    /// Parses `"a"`..`"f"`, `"sh"` or `"rmw"` (case-insensitive).
    pub fn parse(s: &str) -> Option<CoreWorkload> {
        match s.to_ascii_lowercase().as_str() {
            "a" => Some(CoreWorkload::A),
            "b" => Some(CoreWorkload::B),
            "c" => Some(CoreWorkload::C),
            "d" => Some(CoreWorkload::D),
            "e" => Some(CoreWorkload::E),
            "f" => Some(CoreWorkload::F),
            "sh" => Some(CoreWorkload::ScanHeavy),
            "rmw" => Some(CoreWorkload::ReadModifyWriteHeavy),
            _ => None,
        }
    }

    /// The canonical name.
    pub fn as_str(&self) -> &'static str {
        match self {
            CoreWorkload::A => "a",
            CoreWorkload::B => "b",
            CoreWorkload::C => "c",
            CoreWorkload::D => "d",
            CoreWorkload::E => "e",
            CoreWorkload::F => "f",
            CoreWorkload::ScanHeavy => "sh",
            CoreWorkload::ReadModifyWriteHeavy => "rmw",
        }
    }
}

/// A complete workload definition.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkloadSpec {
    /// Records loaded in the load phase.
    pub record_count: u64,
    /// Operations executed in the transaction phase (per run, across all
    /// client threads).
    pub operation_count: u64,
    /// Fields per document.
    pub field_count: usize,
    /// Bytes per field value.
    pub field_length: usize,
    /// Operation proportions.
    pub mix: OpMix,
    /// Key-selection distribution.
    pub distribution: Distribution,
    /// Maximum records returned by a scan.
    pub max_scan_length: u64,
    /// RNG seed; two runs with the same spec produce identical streams.
    pub seed: u64,
    /// Fraction (0..=1) of field bytes drawn from a small word dictionary
    /// instead of uniform noise. Real-world documents are partially
    /// redundant; this controls how well they compress (0.0 = YCSB's
    /// classic incompressible random values).
    pub compressibility: f64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec {
            record_count: 1_000,
            operation_count: 10_000,
            field_count: 10,
            field_length: 100,
            mix: OpMix { read: 0.5, update: 0.5, insert: 0.0, scan: 0.0, read_modify_write: 0.0 },
            distribution: Distribution::Zipfian,
            max_scan_length: 100,
            seed: 42,
            compressibility: 0.5,
        }
    }
}

impl WorkloadSpec {
    /// The preset for one of the YCSB core workloads.
    pub fn core(workload: CoreWorkload) -> Self {
        let mix = match workload {
            CoreWorkload::A => {
                OpMix { read: 0.5, update: 0.5, insert: 0.0, scan: 0.0, read_modify_write: 0.0 }
            }
            CoreWorkload::B => {
                OpMix { read: 0.95, update: 0.05, insert: 0.0, scan: 0.0, read_modify_write: 0.0 }
            }
            CoreWorkload::C => {
                OpMix { read: 1.0, update: 0.0, insert: 0.0, scan: 0.0, read_modify_write: 0.0 }
            }
            CoreWorkload::D => {
                OpMix { read: 0.95, update: 0.0, insert: 0.05, scan: 0.0, read_modify_write: 0.0 }
            }
            CoreWorkload::E => {
                OpMix { read: 0.0, update: 0.0, insert: 0.05, scan: 0.95, read_modify_write: 0.0 }
            }
            CoreWorkload::F => {
                OpMix { read: 0.5, update: 0.0, insert: 0.0, scan: 0.0, read_modify_write: 0.5 }
            }
            CoreWorkload::ScanHeavy => {
                OpMix { read: 0.25, update: 0.0, insert: 0.05, scan: 0.7, read_modify_write: 0.0 }
            }
            CoreWorkload::ReadModifyWriteHeavy => {
                OpMix { read: 0.2, update: 0.1, insert: 0.0, scan: 0.0, read_modify_write: 0.7 }
            }
        };
        let distribution = match workload {
            CoreWorkload::D => Distribution::Latest,
            CoreWorkload::ScanHeavy => Distribution::Hotspot,
            _ => Distribution::Zipfian,
        };
        WorkloadSpec { mix, distribution, ..WorkloadSpec::default() }
    }

    /// Validates the whole spec.
    pub fn validate(&self) -> Result<(), String> {
        if self.record_count == 0 {
            return Err("record_count must be positive".to_string());
        }
        if self.field_count == 0 {
            return Err("field_count must be positive".to_string());
        }
        if self.max_scan_length == 0 {
            return Err("max_scan_length must be positive".to_string());
        }
        if !(0.0..=1.0).contains(&self.compressibility) {
            return Err(format!("compressibility must be in [0, 1], got {}", self.compressibility));
        }
        self.mix.validate()
    }

    /// The key string for record index `i` (zero-padded, YCSB-style):
    /// `user` and at least 12 decimal digits, the same bytes as
    /// `format!("user{i:012}")` without the formatting machinery.
    pub fn key_for(&self, i: u64) -> String {
        const PADDED: usize = 12;
        let mut digits = [b'0'; 20];
        let (mut rest, mut start) = (i, digits.len());
        loop {
            start -= 1;
            digits[start] = b'0' + (rest % 10) as u8;
            rest /= 10;
            if rest == 0 {
                break;
            }
        }
        let digits = &digits[start.min(digits.len() - PADDED)..];
        let mut key = String::with_capacity(4 + digits.len());
        key.push_str("user");
        key.push_str(std::str::from_utf8(digits).expect("ASCII digits"));
        key
    }

    /// The document field names, `field0` to `field{field_count - 1}`.
    pub fn field_names(&self) -> Vec<String> {
        (0..self.field_count).map(|f| format!("field{f}")).collect()
    }

    /// Derives a fresh seed for worker thread `thread` of `threads`.
    pub fn thread_seed(&self, thread: usize) -> u64 {
        // Mix with a splitmix-style finalizer so nearby thread indexes do not
        // produce correlated streams.
        let mut z = self.seed ^ (thread as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn core_presets_are_valid() {
        for w in CoreWorkload::ALL {
            let spec = WorkloadSpec::core(w);
            spec.validate().unwrap_or_else(|e| panic!("workload {w:?}: {e}"));
            assert_eq!(CoreWorkload::parse(w.as_str()), Some(w), "name roundtrip for {w:?}");
        }
    }

    #[test]
    fn workload_d_uses_latest() {
        assert_eq!(WorkloadSpec::core(CoreWorkload::D).distribution, Distribution::Latest);
        assert_eq!(WorkloadSpec::core(CoreWorkload::A).distribution, Distribution::Zipfian);
    }

    #[test]
    fn scenario_pack_mixes() {
        let sh = WorkloadSpec::core(CoreWorkload::ScanHeavy);
        assert!(sh.mix.scan >= 0.7, "scan-heavy must be dominated by scans");
        assert_eq!(sh.distribution, Distribution::Hotspot);
        let rmw = WorkloadSpec::core(CoreWorkload::ReadModifyWriteHeavy);
        assert!(rmw.mix.read_modify_write >= 0.7, "rmw-heavy must be dominated by rmw");
        assert_eq!(rmw.distribution, Distribution::Zipfian);
        assert_eq!(CoreWorkload::parse("SH"), Some(CoreWorkload::ScanHeavy));
        assert_eq!(CoreWorkload::parse("rmw"), Some(CoreWorkload::ReadModifyWriteHeavy));
    }

    #[test]
    fn mix_validation() {
        let mut spec = WorkloadSpec::default();
        spec.mix.read = 0.9;
        assert!(spec.validate().is_err());
        spec.mix.read = 0.5;
        assert!(spec.validate().is_ok());
        spec.mix.update = -0.1;
        assert!(spec.validate().is_err());
    }

    #[test]
    fn zero_counts_rejected() {
        let spec = WorkloadSpec { record_count: 0, ..WorkloadSpec::default() };
        assert!(spec.validate().is_err());
        let spec = WorkloadSpec { field_count: 0, ..WorkloadSpec::default() };
        assert!(spec.validate().is_err());
    }

    #[test]
    fn keys_are_padded_and_ordered() {
        let spec = WorkloadSpec::default();
        assert_eq!(spec.key_for(0), "user000000000000");
        assert_eq!(spec.key_for(42), "user000000000042");
        assert!(spec.key_for(9) < spec.key_for(10), "lexicographic = numeric order");
        for i in [1, 999_999_999_999, 1_000_000_000_000, 123_456_789_012_345, u64::MAX] {
            assert_eq!(spec.key_for(i), format!("user{i:012}"));
        }
    }

    #[test]
    fn thread_seeds_differ() {
        let spec = WorkloadSpec::default();
        let seeds: Vec<u64> = (0..16).map(|t| spec.thread_seed(t)).collect();
        let unique: std::collections::HashSet<_> = seeds.iter().collect();
        assert_eq!(unique.len(), seeds.len());
    }
}
