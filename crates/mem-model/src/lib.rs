//! Off-chip HBM memory model.
//!
//! The paper feeds HBM access traces to Ramulator (Sec. V-A); the system
//! simulator only consumes the resulting *cycle costs* plus the 7 pJ/bit
//! access energy. This crate provides that interface directly: a 4-layer
//! HBM stack abstracted as a shared-bandwidth, fixed-latency channel with
//! energy and traffic accounting (see `DESIGN.md` §2 for the substitution
//! rationale).
//!
//! Contention is modeled per (pseudo-)channel: a request issued at cycle
//! `t` takes the earliest-free of the stack's channels, occupies it for
//! `bytes / per-channel-bandwidth` cycles, and completes one access latency
//! later. Requests on distinct channels proceed concurrently.
//!
//! ```rust
//! use mem_model::{HbmConfig, HbmModel};
//!
//! let mut hbm = HbmModel::new(HbmConfig::paper_default());
//! let done = hbm.read(0, 4096);
//! assert!(done >= 4096 / hbm.config().peak_bytes_per_cycle);
//! assert_eq!(hbm.read_bytes(), 4096);
//! ```

/// Capacity, timing and energy parameters of the HBM stack.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HbmConfig {
    /// Total capacity in bytes (paper: 4 GB).
    pub capacity_bytes: u64,
    /// Peak bandwidth in bytes per *engine* cycle. 128 GB/s at a 500 MHz
    /// engine clock is 256 B/cycle.
    pub peak_bytes_per_cycle: u64,
    /// Fixed access latency in engine cycles (row activation + CAS + PHY).
    pub access_latency_cycles: u64,
    /// Access energy per byte (paper: 7 pJ/bit → 56 pJ/byte, Cacti-3DD).
    pub energy_pj_per_byte: f64,
    /// Independent (pseudo-)channels. A 4-layer HBM stack exposes 8
    /// channels / 16 pseudo-channels; requests on different channels do not
    /// queue behind each other. Peak bandwidth is split evenly.
    pub channels: usize,
}

impl HbmConfig {
    /// The paper's 4-layer HBM stack: 4 GB, 128 GB/s, 7 pJ/bit, with a
    /// 100-cycle access latency at the 500 MHz engine clock.
    pub fn paper_default() -> Self {
        Self {
            capacity_bytes: 4 << 30,
            peak_bytes_per_cycle: 256,
            access_latency_cycles: 100,
            energy_pj_per_byte: 7.0 * 8.0,
            channels: 8,
        }
    }

    /// Cycles one channel is occupied serving `bytes` (serialization at the
    /// per-channel share of peak bandwidth).
    pub fn occupancy_cycles(&self, bytes: u64) -> u64 {
        bytes.div_ceil((self.peak_bytes_per_cycle / self.channels.max(1) as u64).max(1))
    }
}

impl Default for HbmConfig {
    fn default() -> Self {
        Self::paper_default()
    }
}

/// Stateful HBM channel: serializes requests, accumulates traffic statistics.
#[derive(Debug, Clone)]
pub struct HbmModel {
    cfg: HbmConfig,
    /// Per-channel busy pointers; requests take the earliest-free channel.
    busy_until: Vec<u64>,
    /// Effective-bandwidth derate in `(0, 1]`: 1.0 = healthy, 0.5 = half
    /// the peak bandwidth (fault injection; latency is unaffected).
    derate: f64,
    read_bytes: u64,
    write_bytes: u64,
    accesses: u64,
    stall_cycles: u64,
}

impl HbmModel {
    /// Transfers above this size stripe across all channels.
    const STRIPE_THRESHOLD: u64 = 16 * 1024;

    /// Smallest accepted derate factor (guards against divide-by-zero and
    /// effectively-infinite service times).
    pub const MIN_DERATE: f64 = 0.01;

    /// Creates an idle stack.
    pub fn new(cfg: HbmConfig) -> Self {
        Self {
            busy_until: vec![0; cfg.channels.max(1)],
            cfg,
            derate: 1.0,
            read_bytes: 0,
            write_bytes: 0,
            accesses: 0,
            stall_cycles: 0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &HbmConfig {
        &self.cfg
    }

    /// Derates the effective bandwidth to `factor` of peak (clamped to
    /// `[MIN_DERATE, 1.0]`). Subsequent accesses serialize proportionally
    /// slower; in-flight channel occupancy and access latency are
    /// unaffected. Models partial HBM channel/TSV failures.
    pub fn set_bandwidth_derate(&mut self, factor: f64) {
        self.derate = factor.clamp(Self::MIN_DERATE, 1.0);
    }

    /// The current bandwidth derate factor (1.0 = healthy).
    pub fn bandwidth_derate(&self) -> f64 {
        self.derate
    }

    /// Channel-occupancy cycles under the current derate.
    fn derated(&self, cycles: u64) -> u64 {
        if self.derate >= 1.0 {
            cycles
        } else {
            // Derate is clamped to ≥ MIN_DERATE, so the quotient stays far
            // below 2^63 for any physical cycle count; ceil() is integral.
            #[allow(clippy::cast_possible_truncation)]
            let slowed = (cycles as f64 / self.derate).ceil() as u64;
            slowed
        }
    }

    /// Issues a read of `bytes` at cycle `now`; returns the completion cycle.
    pub fn read(&mut self, now: u64, bytes: u64) -> u64 {
        self.read_bytes += bytes;
        self.access(now, bytes)
    }

    /// Issues a write of `bytes` at cycle `now`; returns the completion cycle.
    pub fn write(&mut self, now: u64, bytes: u64) -> u64 {
        self.write_bytes += bytes;
        self.access(now, bytes)
    }

    fn access(&mut self, now: u64, bytes: u64) -> u64 {
        if bytes == 0 {
            return now;
        }
        self.accesses += 1;
        if bytes > Self::STRIPE_THRESHOLD {
            // Large transfers are address-interleaved across every channel:
            // they stream at the full stack bandwidth but briefly occupy the
            // whole stack.
            let start = now.max(self.busy_until.iter().copied().max().unwrap_or(0));
            self.stall_cycles += start - now;
            let occupancy = self.derated(bytes.div_ceil(self.cfg.peak_bytes_per_cycle));
            for b in &mut self.busy_until {
                *b = start + occupancy;
            }
            start + occupancy + self.cfg.access_latency_cycles
        } else {
            // Small transfers take the earliest-free channel at the
            // per-channel bandwidth share; independent requests overlap.
            // `busy_until` always has ≥ 1 channel (see `HbmModel::new`).
            let ch = (0..self.busy_until.len())
                .min_by_key(|c| self.busy_until[*c])
                .unwrap_or(0);
            let start = now.max(self.busy_until[ch]);
            self.stall_cycles += start - now;
            self.busy_until[ch] = start + self.derated(self.cfg.occupancy_cycles(bytes));
            self.busy_until[ch] + self.cfg.access_latency_cycles
        }
    }

    /// Total bytes read so far.
    pub fn read_bytes(&self) -> u64 {
        self.read_bytes
    }

    /// Total bytes written so far.
    pub fn write_bytes(&self) -> u64 {
        self.write_bytes
    }

    /// Total off-chip traffic (reads + writes).
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }

    /// Number of requests served.
    pub fn accesses(&self) -> u64 {
        self.accesses
    }

    /// Cycles requests spent queueing behind the busy channel.
    pub fn stall_cycles(&self) -> u64 {
        self.stall_cycles
    }

    /// Total DRAM access energy in picojoules.
    pub fn energy_pj(&self) -> f64 {
        self.total_bytes() as f64 * self.cfg.energy_pj_per_byte
    }

    /// Resets the channel to idle and zeroes all statistics. The bandwidth
    /// derate persists: it models a hardware condition, not a statistic.
    pub fn reset(&mut self) {
        let derate = self.derate;
        *self = Self::new(self.cfg);
        self.derate = derate;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> HbmModel {
        HbmModel::new(HbmConfig::paper_default())
    }

    #[test]
    fn unloaded_read_takes_latency_plus_serialization() {
        let mut m = model();
        // 2560 B on a 32 B/cycle channel share = 80 cycles of occupancy.
        let done = m.read(0, 2560);
        assert_eq!(done, 80 + 100);
    }

    #[test]
    fn contention_serializes_within_channel_capacity() {
        let mut m = model();
        // 8 channels: the first 8 requests start immediately, the 9th
        // queues behind the earliest-free channel.
        let mut completions = Vec::new();
        for _ in 0..9 {
            completions.push(m.read(0, 3200)); // 100 cycles occupancy each
        }
        assert!(completions[..8].iter().all(|&c| c == 200));
        assert_eq!(completions[8], 300);
        assert_eq!(m.stall_cycles(), 100);
    }

    #[test]
    fn idle_gap_resets_queueing() {
        let mut m = model();
        m.read(0, 32); // occupies one channel for 1 cycle
        let done = m.read(1000, 32);
        assert_eq!(done, 1000 + 1 + 100);
    }

    #[test]
    fn zero_byte_access_is_free() {
        let mut m = model();
        assert_eq!(m.read(42, 0), 42);
        assert_eq!(m.accesses(), 0);
        assert_eq!(m.total_bytes(), 0);
    }

    #[test]
    fn energy_accounts_reads_and_writes() {
        let mut m = model();
        m.read(0, 1000);
        m.write(0, 500);
        assert_eq!(m.total_bytes(), 1500);
        let expect = 1500.0 * 56.0;
        assert!((m.energy_pj() - expect).abs() < 1e-9);
    }

    #[test]
    fn reset_clears_state() {
        let mut m = model();
        m.read(0, 1 << 20);
        m.reset();
        assert_eq!(m.total_bytes(), 0);
        assert_eq!(m.read(0, 32), 101);
    }

    #[test]
    fn derate_scales_serialization_not_latency() {
        let mut m = model();
        m.set_bandwidth_derate(0.5);
        // 2560 B = 80 occupancy cycles healthy → 160 at half bandwidth;
        // the 100-cycle access latency is unchanged.
        assert_eq!(m.read(0, 2560), 160 + 100);

        let mut big = model();
        big.set_bandwidth_derate(0.25);
        // Striped transfer: 64 KiB / 256 B/cycle = 256 cycles → 1024.
        assert_eq!(big.read(0, 64 * 1024), 1024 + 100);
    }

    #[test]
    fn derate_is_clamped_and_survives_reset() {
        let mut m = model();
        m.set_bandwidth_derate(0.0);
        assert_eq!(m.bandwidth_derate(), HbmModel::MIN_DERATE);
        m.set_bandwidth_derate(7.0);
        assert_eq!(m.bandwidth_derate(), 1.0);
        m.set_bandwidth_derate(0.5);
        m.reset();
        assert_eq!(m.bandwidth_derate(), 0.5);
    }

    #[test]
    fn healthy_derate_is_exact_passthrough() {
        let mut a = model();
        let mut b = model();
        b.set_bandwidth_derate(1.0);
        for i in 0..20u64 {
            assert_eq!(a.read(i * 7, 1000 + i), b.read(i * 7, 1000 + i));
        }
    }
}
