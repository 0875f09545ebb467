//! Direct-network topologies for the DDPM reproduction.
//!
//! The paper ("A Source Identification Scheme against DDoS Attacks in
//! Cluster Interconnects", Lee, Kim & Lee, ICPP 2004) defines its marking
//! scheme on *direct networks*: every node couples a compute element with a
//! switch, and switches are connected point-to-point in a regular pattern.
//! Section 3 of the paper introduces the three families this crate models:
//!
//! * [`Mesh`] — an n-dimensional mesh with `k_0 × k_1 × … × k_{n-1}` nodes,
//!   degree `2n` and diameter `Σ (k_i − 1)`;
//! * [`Torus`] — a k-ary n-cube, i.e. a mesh with wrap-around channels,
//!   degree `2n` and diameter `Σ ⌊k_i / 2⌋`;
//! * [`Hypercube`] — an n-cube, i.e. a mesh with `k_i = 2` for all `i`,
//!   degree and diameter `n`.
//!
//! All three are unified behind the [`Topology`] enum, which also provides
//! the two primitives the marking schemes are built on:
//!
//! * [`Topology::hop_displacement`] — the per-hop distance-vector increment
//!   `Δ = Y − X` used by Deterministic Distance Packet Marking (Fig. 4 of
//!   the paper), with wrap-aware semantics on the torus and XOR semantics
//!   on the hypercube;
//! * [`Topology::source_from_distance`] — the victim-side inversion
//!   `S = D ⊖ V` that identifies the true source from a single packet.

#![warn(missing_docs)]

pub mod coord;
pub mod direction;
pub mod faults;
pub mod graph;
pub mod gray;
pub mod hypercube;
pub mod mesh;
pub mod topology;
pub mod torus;

pub use coord::{Coord, MAX_DIMS};
pub use direction::{Direction, Sign};
pub use faults::{ChurnConfig, FaultEvent, FaultSchedule, FaultSet};
pub use graph::{bfs_distances, connected_component_size, diameter_by_bfs, DistanceOracle};
pub use hypercube::Hypercube;
pub use mesh::Mesh;
pub use topology::{NodeId, Topology, TopologyError, TopologyKind};
pub use torus::Torus;
