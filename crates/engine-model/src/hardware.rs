//! Declarative hardware descriptions for heterogeneous accelerator SKUs.
//!
//! The paper evaluates a single 8×8-engine configuration (Sec. V-A), and
//! early versions of this repo hard-coded it at every call site. To serve
//! plans for different SKUs from one daemon, the full machine description —
//! mesh dimensions, per-engine PE array and buffer, HBM parameters — is now
//! a [`HardwareConfig`] value that can be loaded from a JSON file, validated
//! with typed errors ([`ConfigError`]), and fingerprinted as half of the
//! plan-cache key. `engine-model` owns the type because it is pure data;
//! turning it into `MeshConfig`/`HbmConfig`/`SimConfig` values happens in
//! `core`, which depends on those crates.
//!
//! ```rust
//! use engine_model::HardwareConfig;
//!
//! let hw = HardwareConfig::paper_default();
//! assert!(hw.validate().is_ok());
//! let text = hw.to_json().to_pretty();
//! let back = HardwareConfig::from_json(&ad_util::Json::parse(&text).unwrap()).unwrap();
//! assert_eq!(back, hw);
//! ```

use std::fmt;

use ad_util::Json;

use crate::energy::EnergyModel;
use crate::EngineConfig;

/// A complete accelerator description: NoC mesh, per-engine
/// micro-architecture, and HBM subsystem.
///
/// Field values default to the paper's Sec. V-A machine; a config file only
/// needs to name the fields it changes. All fields are plain numbers so the
/// description round-trips through [`Json`] byte-identically.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HardwareConfig {
    /// Mesh columns (engines along X).
    pub mesh_cols: usize,
    /// Mesh rows (engines along Y).
    pub mesh_rows: usize,
    /// NoC link bandwidth in bytes per cycle.
    pub link_bytes_per_cycle: u64,
    /// Per-hop router latency in cycles.
    pub hop_latency: u64,
    /// NoC energy per byte per hop, in picojoules.
    pub noc_energy_pj_per_byte_hop: f64,
    /// PE rows per engine.
    pub pe_x: usize,
    /// PE columns per engine.
    pub pe_y: usize,
    /// Per-engine global buffer capacity in bytes.
    pub buffer_bytes: u64,
    /// Engine clock in MHz.
    pub freq_mhz: u64,
    /// SIMD lanes of the per-engine vector unit.
    pub vector_lanes: usize,
    /// Per-engine energy coefficients.
    pub energy: EnergyModel,
    /// HBM capacity in bytes.
    pub hbm_capacity_bytes: u64,
    /// Aggregate HBM bandwidth in bytes per cycle.
    pub hbm_bytes_per_cycle: u64,
    /// HBM access latency in cycles.
    pub hbm_access_latency_cycles: u64,
    /// HBM energy per byte, in picojoules.
    pub hbm_energy_pj_per_byte: f64,
    /// Independent HBM channels.
    pub hbm_channels: usize,
}

impl HardwareConfig {
    /// The paper's evaluation machine: 8×8 mesh of 16×16-PE engines with
    /// 128 KB buffers at 500 MHz, 4 GB HBM at 256 B/cycle.
    pub fn paper_default() -> Self {
        Self {
            mesh_cols: 8,
            mesh_rows: 8,
            link_bytes_per_cycle: 64,
            hop_latency: 1,
            noc_energy_pj_per_byte_hop: 0.61 * 8.0,
            pe_x: 16,
            pe_y: 16,
            buffer_bytes: 128 * 1024,
            freq_mhz: 500,
            vector_lanes: 64,
            energy: EnergyModel::tsmc28_default(),
            hbm_capacity_bytes: 4 << 30,
            hbm_bytes_per_cycle: 256,
            hbm_access_latency_cycles: 100,
            hbm_energy_pj_per_byte: 7.0 * 8.0,
            hbm_channels: 8,
        }
    }

    /// A small 4×4 mesh of the same engines, used by fast test/CI runs.
    pub fn fast_test() -> Self {
        Self {
            mesh_cols: 4,
            mesh_rows: 4,
            ..Self::paper_default()
        }
    }

    /// Engines in the mesh.
    pub fn engine_count(&self) -> usize {
        self.mesh_cols * self.mesh_rows
    }

    /// The per-engine slice of this description as an [`EngineConfig`].
    pub fn engine_config(&self) -> EngineConfig {
        EngineConfig {
            pe_x: self.pe_x,
            pe_y: self.pe_y,
            buffer_bytes: self.buffer_bytes,
            freq_mhz: self.freq_mhz,
            vector_lanes: self.vector_lanes,
            energy: self.energy,
        }
    }

    /// Rejects degenerate machines that would make the planner divide by
    /// zero or plan against non-existent resources, and machines so large
    /// that cycle, byte or engine-count arithmetic could overflow. Every
    /// error names the offending field.
    ///
    /// Upper bounds (inclusive): 64 engines per mesh side, 4096 PEs per
    /// array side, 64 Ki vector lanes, 1 TiB engine buffer, 1 PiB HBM,
    /// 1 MiB/cycle of link or HBM bandwidth, 1024 HBM channels, 64 Ki-cycle
    /// hop and HBM latencies and a 1 THz clock — each far above any
    /// machine the paper or this repository models.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Degenerate`] for the first zero-valued dimension,
    /// bandwidth, capacity or clock encountered, and
    /// [`ConfigError::TooLarge`] for the first field above its bound.
    pub fn validate(&self) -> Result<(), ConfigError> {
        // (field, value, may be zero, inclusive upper bound)
        let limits: [(&'static str, u64, bool, u64); 13] = [
            ("mesh_cols", self.mesh_cols as u64, false, 64),
            ("mesh_rows", self.mesh_rows as u64, false, 64),
            (
                "link_bytes_per_cycle",
                self.link_bytes_per_cycle,
                false,
                1 << 20,
            ),
            ("hop_latency", self.hop_latency, true, 1 << 16),
            ("pe_x", self.pe_x as u64, false, 4096),
            ("pe_y", self.pe_y as u64, false, 4096),
            ("buffer_bytes", self.buffer_bytes, false, 1 << 40),
            ("freq_mhz", self.freq_mhz, false, 1_000_000),
            ("vector_lanes", self.vector_lanes as u64, false, 1 << 16),
            (
                "hbm_capacity_bytes",
                self.hbm_capacity_bytes,
                false,
                1 << 50,
            ),
            (
                "hbm_bytes_per_cycle",
                self.hbm_bytes_per_cycle,
                false,
                1 << 20,
            ),
            (
                "hbm_access_latency_cycles",
                self.hbm_access_latency_cycles,
                true,
                1 << 16,
            ),
            ("hbm_channels", self.hbm_channels as u64, false, 1024),
        ];
        for (field, v, zero_ok, max) in limits {
            if v == 0 && !zero_ok {
                return Err(ConfigError::Degenerate { field });
            }
            if v > max {
                return Err(ConfigError::TooLarge { field, max });
            }
        }
        Ok(())
    }

    /// Serializes to a [`Json`] object mirroring the config-file schema.
    pub fn to_json(&self) -> Json {
        let e = &self.energy;
        Json::Obj(vec![
            ("mesh_cols".into(), Json::from(self.mesh_cols)),
            ("mesh_rows".into(), Json::from(self.mesh_rows)),
            (
                "link_bytes_per_cycle".into(),
                Json::from(self.link_bytes_per_cycle),
            ),
            ("hop_latency".into(), Json::from(self.hop_latency)),
            (
                "noc_energy_pj_per_byte_hop".into(),
                Json::Num(self.noc_energy_pj_per_byte_hop),
            ),
            ("pe_x".into(), Json::from(self.pe_x)),
            ("pe_y".into(), Json::from(self.pe_y)),
            ("buffer_bytes".into(), Json::from(self.buffer_bytes)),
            ("freq_mhz".into(), Json::from(self.freq_mhz)),
            ("vector_lanes".into(), Json::from(self.vector_lanes)),
            (
                "energy".into(),
                Json::Obj(vec![
                    ("mac_pj".into(), Json::Num(e.mac_pj)),
                    (
                        "sram_read_pj_per_byte".into(),
                        Json::Num(e.sram_read_pj_per_byte),
                    ),
                    (
                        "sram_write_pj_per_byte".into(),
                        Json::Num(e.sram_write_pj_per_byte),
                    ),
                    (
                        "static_mw_per_engine".into(),
                        Json::Num(e.static_mw_per_engine),
                    ),
                ]),
            ),
            (
                "hbm_capacity_bytes".into(),
                Json::from(self.hbm_capacity_bytes),
            ),
            (
                "hbm_bytes_per_cycle".into(),
                Json::from(self.hbm_bytes_per_cycle),
            ),
            (
                "hbm_access_latency_cycles".into(),
                Json::from(self.hbm_access_latency_cycles),
            ),
            (
                "hbm_energy_pj_per_byte".into(),
                Json::Num(self.hbm_energy_pj_per_byte),
            ),
            ("hbm_channels".into(), Json::from(self.hbm_channels)),
        ])
    }

    /// Deserializes from a [`Json`] object. Unnamed fields keep their
    /// [`HardwareConfig::paper_default`] values; unknown keys are rejected
    /// so typos fail loudly; the result is [`HardwareConfig::validate`]d.
    ///
    /// # Errors
    ///
    /// [`ConfigError::BadType`] when the document or a field has the wrong
    /// type, [`ConfigError::UnknownField`] for unrecognized keys, and any
    /// error of [`HardwareConfig::validate`].
    pub fn from_json(doc: &Json) -> Result<Self, ConfigError> {
        let obj = doc.as_object().ok_or(ConfigError::BadType {
            field: "<document>",
        })?;
        let mut hw = Self::paper_default();
        for (key, value) in obj {
            match key.as_str() {
                "mesh_cols" => hw.mesh_cols = usize_field(value, "mesh_cols")?,
                "mesh_rows" => hw.mesh_rows = usize_field(value, "mesh_rows")?,
                "link_bytes_per_cycle" => {
                    hw.link_bytes_per_cycle = u64_field(value, "link_bytes_per_cycle")?;
                }
                "hop_latency" => hw.hop_latency = u64_field(value, "hop_latency")?,
                "noc_energy_pj_per_byte_hop" => {
                    hw.noc_energy_pj_per_byte_hop = f64_field(value, "noc_energy_pj_per_byte_hop")?;
                }
                "pe_x" => hw.pe_x = usize_field(value, "pe_x")?,
                "pe_y" => hw.pe_y = usize_field(value, "pe_y")?,
                "buffer_bytes" => hw.buffer_bytes = u64_field(value, "buffer_bytes")?,
                "freq_mhz" => hw.freq_mhz = u64_field(value, "freq_mhz")?,
                "vector_lanes" => hw.vector_lanes = usize_field(value, "vector_lanes")?,
                "energy" => hw.energy = energy_from_json(value)?,
                "hbm_capacity_bytes" => {
                    hw.hbm_capacity_bytes = u64_field(value, "hbm_capacity_bytes")?;
                }
                "hbm_bytes_per_cycle" => {
                    hw.hbm_bytes_per_cycle = u64_field(value, "hbm_bytes_per_cycle")?;
                }
                "hbm_access_latency_cycles" => {
                    hw.hbm_access_latency_cycles = u64_field(value, "hbm_access_latency_cycles")?;
                }
                "hbm_energy_pj_per_byte" => {
                    hw.hbm_energy_pj_per_byte = f64_field(value, "hbm_energy_pj_per_byte")?;
                }
                "hbm_channels" => hw.hbm_channels = usize_field(value, "hbm_channels")?,
                other => {
                    return Err(ConfigError::UnknownField {
                        field: other.to_string(),
                    })
                }
            }
        }
        hw.validate()?;
        Ok(hw)
    }

    /// Parses a JSON config-file text.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Parse`] on malformed JSON, plus any
    /// [`HardwareConfig::from_json`] error.
    pub fn from_json_text(text: &str) -> Result<Self, ConfigError> {
        let doc = Json::parse(text).map_err(|e| ConfigError::Parse {
            detail: e.to_string(),
        })?;
        Self::from_json(&doc)
    }

    /// Loads and parses a config file from disk.
    ///
    /// # Errors
    ///
    /// [`ConfigError::Io`] when the file cannot be read, plus any
    /// [`HardwareConfig::from_json_text`] error.
    pub fn load(path: &str) -> Result<Self, ConfigError> {
        let text = std::fs::read_to_string(path).map_err(|e| ConfigError::Io {
            path: path.to_string(),
            detail: e.to_string(),
        })?;
        Self::from_json_text(&text)
    }

    /// A stable fingerprint of every field, used as part of the plan-cache
    /// key. Two configs with equal fingerprints describe the same machine.
    pub fn fingerprint(&self) -> ad_util::Fingerprint {
        let mut h = ad_util::FpHasher::new();
        h.write_str("hardware-config/v1");
        h.write_usize(self.mesh_cols);
        h.write_usize(self.mesh_rows);
        h.write_u64(self.link_bytes_per_cycle);
        h.write_u64(self.hop_latency);
        h.write_f64(self.noc_energy_pj_per_byte_hop);
        h.write_usize(self.pe_x);
        h.write_usize(self.pe_y);
        h.write_u64(self.buffer_bytes);
        h.write_u64(self.freq_mhz);
        h.write_usize(self.vector_lanes);
        h.write_f64(self.energy.mac_pj);
        h.write_f64(self.energy.sram_read_pj_per_byte);
        h.write_f64(self.energy.sram_write_pj_per_byte);
        h.write_f64(self.energy.static_mw_per_engine);
        h.write_u64(self.hbm_capacity_bytes);
        h.write_u64(self.hbm_bytes_per_cycle);
        h.write_u64(self.hbm_access_latency_cycles);
        h.write_f64(self.hbm_energy_pj_per_byte);
        h.write_usize(self.hbm_channels);
        h.finish()
    }
}

impl Default for HardwareConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

fn energy_from_json(doc: &Json) -> Result<EnergyModel, ConfigError> {
    let obj = doc
        .as_object()
        .ok_or(ConfigError::BadType { field: "energy" })?;
    let mut e = EnergyModel::tsmc28_default();
    for (key, value) in obj {
        match key.as_str() {
            "mac_pj" => e.mac_pj = f64_field(value, "energy.mac_pj")?,
            "sram_read_pj_per_byte" => {
                e.sram_read_pj_per_byte = f64_field(value, "energy.sram_read_pj_per_byte")?;
            }
            "sram_write_pj_per_byte" => {
                e.sram_write_pj_per_byte = f64_field(value, "energy.sram_write_pj_per_byte")?;
            }
            "static_mw_per_engine" => {
                e.static_mw_per_engine = f64_field(value, "energy.static_mw_per_engine")?;
            }
            other => {
                return Err(ConfigError::UnknownField {
                    field: format!("energy.{other}"),
                })
            }
        }
    }
    Ok(e)
}

fn u64_field(v: &Json, field: &'static str) -> Result<u64, ConfigError> {
    v.as_u64().ok_or(ConfigError::BadType { field })
}

fn usize_field(v: &Json, field: &'static str) -> Result<usize, ConfigError> {
    v.as_usize().ok_or(ConfigError::BadType { field })
}

fn f64_field(v: &Json, field: &'static str) -> Result<f64, ConfigError> {
    match v.as_f64() {
        Some(x) if x.is_finite() => Ok(x),
        _ => Err(ConfigError::BadType { field }),
    }
}

/// Typed errors for loading and validating a [`HardwareConfig`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// The config file could not be read.
    Io {
        /// Path that failed to read.
        path: String,
        /// OS error detail.
        detail: String,
    },
    /// The file is not valid JSON.
    Parse {
        /// Parser diagnostic with position.
        detail: String,
    },
    /// A field (or the document itself) has the wrong JSON type.
    BadType {
        /// Offending field, dotted for nested fields.
        field: &'static str,
    },
    /// The document names a field that does not exist (likely a typo).
    UnknownField {
        /// The unrecognized key.
        field: String,
    },
    /// A field has a value that describes a machine with zero resources.
    Degenerate {
        /// Offending field.
        field: &'static str,
    },
    /// A field is above the largest value the planner's arithmetic is
    /// sized for (see [`HardwareConfig::validate`]).
    TooLarge {
        /// Offending field.
        field: &'static str,
        /// The field's inclusive upper bound.
        max: u64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::Io { path, detail } => {
                write!(f, "cannot read hardware config `{path}`: {detail}")
            }
            ConfigError::Parse { detail } => write!(f, "hardware config is not JSON: {detail}"),
            ConfigError::BadType { field } => {
                write!(f, "hardware config field `{field}` has the wrong type")
            }
            ConfigError::UnknownField { field } => {
                write!(f, "hardware config has unknown field `{field}`")
            }
            ConfigError::Degenerate { field } => {
                write!(f, "hardware config field `{field}` must be non-zero")
            }
            ConfigError::TooLarge { field, max } => {
                write!(f, "hardware config field `{field}` must be at most {max}")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_default_is_valid_and_round_trips() {
        let hw = HardwareConfig::paper_default();
        assert!(hw.validate().is_ok());
        assert_eq!(hw.engine_count(), 64);
        assert_eq!(hw.engine_config(), EngineConfig::paper_default());
        let text = hw.to_json().to_pretty();
        let back = HardwareConfig::from_json_text(&text).unwrap();
        assert_eq!(back, hw);
        assert_eq!(back.fingerprint(), hw.fingerprint());
    }

    #[test]
    fn partial_file_inherits_defaults() {
        let hw = HardwareConfig::from_json_text(r#"{"mesh_cols": 4, "mesh_rows": 4}"#).unwrap();
        assert_eq!(hw, HardwareConfig::fast_test());
        assert_ne!(
            hw.fingerprint(),
            HardwareConfig::paper_default().fingerprint()
        );
    }

    #[test]
    fn degenerate_fields_rejected_by_name() {
        for (text, field) in [
            (r#"{"mesh_cols": 0}"#, "mesh_cols"),
            (r#"{"mesh_rows": 0}"#, "mesh_rows"),
            (r#"{"pe_x": 0}"#, "pe_x"),
            (r#"{"pe_y": 0}"#, "pe_y"),
            (r#"{"link_bytes_per_cycle": 0}"#, "link_bytes_per_cycle"),
            (r#"{"hbm_bytes_per_cycle": 0}"#, "hbm_bytes_per_cycle"),
            (r#"{"buffer_bytes": 0}"#, "buffer_bytes"),
            (r#"{"freq_mhz": 0}"#, "freq_mhz"),
            (r#"{"vector_lanes": 0}"#, "vector_lanes"),
            (r#"{"hbm_capacity_bytes": 0}"#, "hbm_capacity_bytes"),
            (r#"{"hbm_channels": 0}"#, "hbm_channels"),
        ] {
            let err = HardwareConfig::from_json_text(text).unwrap_err();
            assert_eq!(err, ConfigError::Degenerate { field }, "{text}");
        }
    }

    #[test]
    fn oversized_fields_rejected_by_name() {
        for (text, field, max) in [
            (r#"{"mesh_cols": 65}"#, "mesh_cols", 64),
            (r#"{"pe_x": 100000000, "pe_y": 100000000}"#, "pe_x", 4096),
            (r#"{"pe_y": 4097}"#, "pe_y", 4096),
            (r#"{"hop_latency": 65537}"#, "hop_latency", 1 << 16),
            (r#"{"hbm_channels": 1025}"#, "hbm_channels", 1024),
        ] {
            let err = HardwareConfig::from_json_text(text).unwrap_err();
            assert_eq!(err, ConfigError::TooLarge { field, max }, "{text}");
            assert!(err.to_string().contains(field));
        }
        // Every bound is inclusive.
        let hw = HardwareConfig::from_json_text(
            r#"{"mesh_cols": 64, "pe_x": 4096, "pe_y": 4096, "hop_latency": 0}"#,
        )
        .unwrap();
        assert_eq!(hw.engine_config().pe_count(), 1 << 24);
    }

    #[test]
    fn typos_and_bad_types_rejected() {
        let err = HardwareConfig::from_json_text(r#"{"mesh_colz": 8}"#).unwrap_err();
        assert!(matches!(err, ConfigError::UnknownField { field } if field == "mesh_colz"));

        let err = HardwareConfig::from_json_text(r#"{"mesh_cols": "eight"}"#).unwrap_err();
        assert_eq!(err, ConfigError::BadType { field: "mesh_cols" });

        let err = HardwareConfig::from_json_text(r#"{"energy": {"mac_pj": "x"}}"#).unwrap_err();
        assert_eq!(
            err,
            ConfigError::BadType {
                field: "energy.mac_pj"
            }
        );

        let err = HardwareConfig::from_json_text("not json").unwrap_err();
        assert!(matches!(err, ConfigError::Parse { .. }));

        let err = HardwareConfig::from_json_text("[1, 2]").unwrap_err();
        assert_eq!(
            err,
            ConfigError::BadType {
                field: "<document>"
            }
        );

        let err = HardwareConfig::load("/nonexistent/hw.json").unwrap_err();
        assert!(matches!(err, ConfigError::Io { .. }));
    }

    #[test]
    fn nested_energy_overrides() {
        let hw = HardwareConfig::from_json_text(r#"{"energy": {"mac_pj": 0.3}}"#).unwrap();
        assert!((hw.energy.mac_pj - 0.3).abs() < 1e-12);
        assert!((hw.energy.sram_read_pj_per_byte - 2.74).abs() < 1e-12);
        assert_ne!(
            hw.fingerprint(),
            HardwareConfig::paper_default().fingerprint()
        );
    }
}
