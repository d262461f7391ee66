//! 2-D mesh network-on-chip model.
//!
//! Models the paper's inter-engine interconnect (Sec. IV-C): a TILE64-style
//! static 2-D mesh with single-cycle hop latency between adjacent engines,
//! dimension-ordered (X-then-Y) routing and credit-based flow control. At
//! the abstraction level the paper evaluates, the quantities of interest are
//!
//! - shortest-path **hop counts** `D(i, j)` feeding the mapping stage's
//!   `TransferCost` (Sec. IV-C),
//! - **transfer cycles** for moving a tensor between engines,
//! - **transfer energy** at 0.61 pJ/bit/hop (Sec. V-A),
//! - **traffic accounting**: bytes, byte-hops and transfers moved.
//!
//! ```rust
//! use noc_model::MeshConfig;
//!
//! let mesh = MeshConfig::paper_default(); // 8x8 engines
//! assert_eq!(mesh.hops(0, 63), 14);       // opposite corners
//! let cycles = mesh.transfer_cycles(1024, mesh.hops(0, 9));
//! assert!(cycles > 0);
//! ```

mod fault;
mod mesh;
mod traffic;

pub use fault::LinkFaults;
pub use mesh::{EngineCoord, MeshConfig};
pub use traffic::TrafficTracker;
