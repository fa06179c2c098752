//! Host topology discovery: processor count and the cache-line parameter
//! `µ` (measured in complex numbers, per the paper §3.1), plus the
//! canonical [`HostFingerprint`] every timing or tuning artifact is
//! keyed by.

use serde::Serialize;

/// Size of one interleaved complex double, in bytes.
pub const COMPLEX_BYTES: usize = 16;

/// The hardware identity a measurement or tuned plan is only valid on:
/// core count, the paper's µ, the raw cache-line size, and which
/// instrumentation features were compiled in. This is the single
/// host-identity struct of the workspace — bench history
/// (`spiral-bench`), run profiles (`spiral-trace`), and persisted wisdom
/// (`spiral-serve`) all embed it rather than re-deriving host facts ad
/// hoc, so their artifacts agree on what "same machine" means.
#[derive(Clone, Debug, PartialEq, Eq, Serialize)]
pub struct HostFingerprint {
    /// Hardware threads available ([`processors`]).
    pub cores: u64,
    /// The paper's µ: cache-line length in complex numbers ([`mu`]).
    pub mu: u64,
    /// Cache-line size in bytes ([`cache_line_bytes`]).
    pub cache_line_bytes: u64,
    /// Runtime-detected SIMD lane width in complex doubles
    /// ([`simd_width`]): 1 = scalar-only hardware. Artifacts produced by
    /// the short-vector backend are only valid on hosts at least this
    /// wide; consumers (wisdom, bench history) compare against their own
    /// host's width.
    pub simd_width: u64,
    /// Optional instrumentation features compiled into the build
    /// (`"faults"`) plus the detected `"simdN"` token, in
    /// fixed order ([`enabled_features`]).
    pub features: Vec<String>,
}

// Hand-written (not derived) so legacy artifacts written before the
// `simd_width` field existed still load: an absent width defaults to 1,
// the conservative scalar claim.
impl serde::Deserialize for HostFingerprint {
    fn from_value(v: &serde::Value) -> Result<Self, serde::Error> {
        fn field<T: serde::Deserialize>(v: &serde::Value, name: &str) -> Result<T, serde::Error> {
            T::from_value(v.get(name).unwrap_or(&serde::Value::Null))
                .map_err(|e| serde::Error(format!("HostFingerprint.{name}: {}", e.0)))
        }
        Ok(HostFingerprint {
            cores: field(v, "cores")?,
            mu: field(v, "mu")?,
            cache_line_bytes: field(v, "cache_line_bytes")?,
            simd_width: match v.get("simd_width") {
                None | Some(serde::Value::Null) => 1,
                Some(_) => field(v, "simd_width")?,
            },
            features: field(v, "features")?,
        })
    }
}

impl HostFingerprint {
    /// Fingerprint of the current host/build (cached after the first
    /// call — topology discovery reads sysfs).
    pub fn current() -> HostFingerprint {
        static CACHE: std::sync::OnceLock<HostFingerprint> = std::sync::OnceLock::new();
        CACHE
            .get_or_init(|| HostFingerprint {
                cores: processors() as u64,
                mu: mu() as u64,
                cache_line_bytes: cache_line_bytes() as u64,
                simd_width: simd_width() as u64,
                features: enabled_features(),
            })
            .clone()
    }

    /// Compact single-token rendering (`"4c-mu4-l64-v4"`), for file
    /// names and log lines.
    pub fn compact(&self) -> String {
        format!(
            "{}c-mu{}-l{}-v{}",
            self.cores, self.mu, self.cache_line_bytes, self.simd_width
        )
    }
}

impl std::fmt::Display for HostFingerprint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} cores, µ={}, {}-byte lines, {}-wide SIMD, features [{}]",
            self.cores,
            self.mu,
            self.cache_line_bytes,
            self.simd_width,
            self.features.join(", ")
        )
    }
}

/// Number of hardware threads available on this host.
pub fn processors() -> usize {
    std::thread::available_parallelism().map_or(1, |c| c.get())
}

/// Cache-line size in bytes, read from sysfs on Linux; falls back to 64.
pub fn cache_line_bytes() -> usize {
    #[cfg(target_os = "linux")]
    {
        if let Ok(s) =
            std::fs::read_to_string("/sys/devices/system/cpu/cpu0/cache/index0/coherency_line_size")
        {
            if let Ok(v) = s.trim().parse::<usize>() {
                if v.is_power_of_two() && (16..=1024).contains(&v) {
                    return v;
                }
            }
        }
    }
    64
}

/// The paper's `µ`: cache-line length measured in complex numbers.
/// 64-byte lines with `double` data give µ = 4.
pub fn mu() -> usize {
    (cache_line_bytes() / COMPLEX_BYTES).max(1)
}

/// Runtime-detected short-vector width, measured in complex doubles
/// (one complex double = 128 bits). This is a *hardware* fact — what the
/// host's widest usable vector unit can hold — independent of whether
/// the codegen backend was built with its scalar fallback; the backend
/// caps its own lane count against this. x86-64 with AVX holds four
/// complex doubles in a pair of 256-bit registers (width 4), baseline
/// SSE2 holds two (width 2); AArch64 NEON holds two; anything else is
/// scalar-only (width 1).
pub fn simd_width() -> usize {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx") {
            4
        } else {
            2
        }
    }
    #[cfg(target_arch = "aarch64")]
    {
        2
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        1
    }
}

/// Names of the optional instrumentation features compiled into this
/// build of the substrate (`"faults"`), followed by the runtime-detected
/// `"simdN"` capability token. Recorded into profile/bench artifacts so
/// a reader can tell a fault-injection build from a bare one, and a
/// vector-backend
/// measurement from a scalar-only host's.
pub fn enabled_features() -> Vec<String> {
    let mut v = Vec::new();
    if cfg!(feature = "faults") {
        v.push("faults".to_string());
    }
    v.push(format!("simd{}", simd_width()));
    v
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn processors_at_least_one() {
        assert!(processors() >= 1);
    }

    #[test]
    fn cache_line_is_sane_power_of_two() {
        let c = cache_line_bytes();
        assert!(c.is_power_of_two());
        assert!((16..=1024).contains(&c));
    }

    #[test]
    fn mu_matches_paper_for_64_byte_lines() {
        // On any 64-byte-line machine µ must be 4.
        if cache_line_bytes() == 64 {
            assert_eq!(mu(), 4);
        }
        assert!(mu() >= 1);
    }

    #[test]
    fn enabled_features_reflect_compilation() {
        let f = enabled_features();
        assert_eq!(f.contains(&"faults".to_string()), cfg!(feature = "faults"));
        // Fixed order keeps serialized artifacts stable: the optional
        // `faults` feature first, the simdN capability last.
        assert_eq!(f.len(), 1 + usize::from(cfg!(feature = "faults")));
        assert_eq!(
            f.last().map(String::as_str),
            Some(format!("simd{}", simd_width()).as_str())
        );
    }

    #[test]
    fn simd_width_is_detected_and_sane() {
        let w = simd_width();
        assert!(w.is_power_of_two());
        assert!((1..=8).contains(&w));
        #[cfg(target_arch = "x86_64")]
        assert!(w >= 2, "x86-64 guarantees SSE2");
        assert_eq!(
            HostFingerprint::current().simd_width,
            w as u64,
            "fingerprint records the detected width"
        );
    }

    #[test]
    fn legacy_fingerprint_without_simd_width_deserializes_as_scalar() {
        let legacy = r#"{"cores":4,"mu":4,"cache_line_bytes":64,"features":[]}"#;
        let fp: HostFingerprint = serde_json::from_str(legacy).expect("legacy JSON still loads");
        assert_eq!(
            fp.simd_width, 1,
            "absent width defaults to the scalar claim"
        );
        assert!(fp.compact().ends_with("-v1"));
    }
}
