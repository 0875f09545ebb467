//! The unified [`Topology`] type.
//!
//! Marking schemes, routing algorithms and the simulator are all written
//! against this enum so a single experiment harness can sweep mesh, torus
//! and hypercube networks — exactly the set of direct networks the paper
//! claims DDPM covers (§1, §5).

use crate::coord::Coord;
use crate::direction::Direction;
use crate::hypercube::Hypercube;
use crate::mesh::Mesh;
use crate::torus::Torus;
use std::fmt;

/// A dense node identifier, `0 .. num_nodes`.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct NodeId(pub u32);

impl NodeId {
    /// The identifier as a `usize`, for table indexing.
    #[must_use]
    pub fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Which family a [`Topology`] belongs to.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum TopologyKind {
    /// n-dimensional mesh (no wrap-around).
    Mesh,
    /// k-ary n-cube (wrap-around channels).
    Torus,
    /// n-cube hypercube (radix-2 everywhere).
    Hypercube,
}

impl fmt::Display for TopologyKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TopologyKind::Mesh => "mesh",
            TopologyKind::Torus => "torus",
            TopologyKind::Hypercube => "hypercube",
        };
        f.write_str(s)
    }
}

/// Errors returned by fallible topology operations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum TopologyError {
    /// A coordinate does not name a node of the network.
    NotANode(Coord),
    /// Two coordinates are not neighbours.
    NotNeighbors(Coord, Coord),
    /// A coordinate has the wrong number of dimensions.
    DimensionMismatch {
        /// Dimensions the topology has.
        expected: usize,
        /// Dimensions the coordinate supplied.
        got: usize,
    },
}

impl fmt::Display for TopologyError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TopologyError::NotANode(c) => write!(f, "{c} is not a node of this topology"),
            TopologyError::NotNeighbors(a, b) => write!(f, "{a} and {b} are not neighbours"),
            TopologyError::DimensionMismatch { expected, got } => {
                write!(f, "expected {expected} dimensions, got {got}")
            }
        }
    }
}

impl std::error::Error for TopologyError {}

/// A direct network: mesh, torus, or hypercube.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum Topology {
    /// An n-dimensional mesh.
    Mesh(Mesh),
    /// A k-ary n-cube.
    Torus(Torus),
    /// An n-cube hypercube.
    Hypercube(Hypercube),
}

impl Topology {
    /// An `n × n` 2-D mesh (the paper's running example).
    #[must_use]
    pub fn mesh2d(n: u16) -> Self {
        Topology::Mesh(Mesh::square(n))
    }

    /// An n-dimensional mesh with the given radices.
    #[must_use]
    pub fn mesh(dims: &[u16]) -> Self {
        Topology::Mesh(Mesh::new(dims))
    }

    /// A k-ary n-cube with the given radices.
    #[must_use]
    pub fn torus(dims: &[u16]) -> Self {
        Topology::Torus(Torus::new(dims))
    }

    /// An n-cube hypercube.
    #[must_use]
    pub fn hypercube(n: usize) -> Self {
        Topology::Hypercube(Hypercube::new(n))
    }

    /// The topology family.
    #[must_use]
    pub fn kind(&self) -> TopologyKind {
        match self {
            Topology::Mesh(_) => TopologyKind::Mesh,
            Topology::Torus(_) => TopologyKind::Torus,
            Topology::Hypercube(_) => TopologyKind::Hypercube,
        }
    }

    /// Number of dimensions.
    #[must_use]
    pub fn ndims(&self) -> usize {
        match self {
            Topology::Mesh(m) => m.ndims(),
            Topology::Torus(t) => t.ndims(),
            Topology::Hypercube(h) => h.ndims(),
        }
    }

    /// Per-dimension radices.
    #[must_use]
    pub fn dims(&self) -> Vec<u16> {
        match self {
            Topology::Mesh(m) => m.dims().to_vec(),
            Topology::Torus(t) => t.dims().to_vec(),
            Topology::Hypercube(h) => h.dims(),
        }
    }

    /// Total node count.
    #[must_use]
    pub fn num_nodes(&self) -> u64 {
        match self {
            Topology::Mesh(m) => m.num_nodes(),
            Topology::Torus(t) => t.num_nodes(),
            Topology::Hypercube(h) => h.num_nodes(),
        }
    }

    /// True if `c` names a node.
    #[must_use]
    pub fn contains(&self, c: &Coord) -> bool {
        match self {
            Topology::Mesh(m) => m.contains(c),
            Topology::Torus(t) => t.contains(c),
            Topology::Hypercube(h) => h.contains(c),
        }
    }

    /// Dense index of a node.
    ///
    /// # Panics
    /// Panics if `c` is not a node.
    #[must_use]
    pub fn index(&self, c: &Coord) -> NodeId {
        NodeId(match self {
            Topology::Mesh(m) => m.index(c),
            Topology::Torus(t) => t.index(c),
            Topology::Hypercube(h) => h.index(c),
        })
    }

    /// Coordinate of a dense index.
    ///
    /// # Panics
    /// Panics if `id` is out of range.
    #[must_use]
    pub fn coord(&self, id: NodeId) -> Coord {
        match self {
            Topology::Mesh(m) => m.coord(id.0),
            Topology::Torus(t) => t.coord(id.0),
            Topology::Hypercube(h) => h.coord(id.0),
        }
    }

    /// The neighbour in direction `dir`, if the port exists and is
    /// connected (mesh boundaries return `None`).
    #[must_use]
    pub fn neighbor(&self, c: &Coord, dir: Direction) -> Option<Coord> {
        match self {
            Topology::Mesh(m) => m.neighbor(c, dir),
            Topology::Torus(t) => t.neighbor(c, dir),
            Topology::Hypercube(h) => h.neighbor(c, dir),
        }
    }

    /// All port directions of the topology family.
    #[must_use]
    pub fn directions(&self) -> Vec<Direction> {
        match self {
            Topology::Mesh(m) => m.directions(),
            Topology::Torus(t) => t.directions(),
            Topology::Hypercube(h) => h.directions(),
        }
    }

    /// Streams the neighbours of `c` to `f`, one call per distinct
    /// neighbour, in [`Topology::neighbors`] order — without allocating
    /// the list, the `directions()` vector, or a dedup set. This is the
    /// hot-path form: routing queries every neighbour of the current
    /// switch on every hop, and at 2^16-node scale the allocation per
    /// query dominates.
    pub fn for_each_neighbor<F: FnMut(Direction, Coord)>(&self, c: &Coord, mut f: F) {
        match self {
            Topology::Mesh(m) => {
                for d in 0..m.ndims() {
                    if let Some(nb) = m.neighbor(c, Direction::plus(d)) {
                        f(Direction::plus(d), nb);
                    }
                    if let Some(nb) = m.neighbor(c, Direction::minus(d)) {
                        f(Direction::minus(d), nb);
                    }
                }
            }
            Topology::Torus(t) => {
                for d in 0..t.ndims() {
                    if let Some(nb) = t.neighbor(c, Direction::plus(d)) {
                        f(Direction::plus(d), nb);
                    }
                    // On a radix-2 ring both signs reach the same node;
                    // keep one port per distinct neighbour.
                    if t.dims()[d] > 2 {
                        if let Some(nb) = t.neighbor(c, Direction::minus(d)) {
                            f(Direction::minus(d), nb);
                        }
                    }
                }
            }
            Topology::Hypercube(h) => {
                for d in 0..h.ndims() {
                    if let Some(nb) = h.neighbor(c, Direction::plus(d)) {
                        f(Direction::plus(d), nb);
                    }
                }
            }
        }
    }

    /// Live neighbours of `c` with the direction that reaches each.
    #[must_use]
    pub fn neighbors(&self, c: &Coord) -> Vec<(Direction, Coord)> {
        let mut out = Vec::with_capacity(self.degree());
        self.for_each_neighbor(c, |dir, nb| out.push((dir, nb)));
        out
    }

    /// Maximum switch degree.
    #[must_use]
    pub fn degree(&self) -> usize {
        match self {
            Topology::Mesh(m) => m.degree(),
            Topology::Torus(t) => t.degree(),
            Topology::Hypercube(h) => h.degree(),
        }
    }

    /// Network diameter (closed form, §3).
    #[must_use]
    pub fn diameter(&self) -> u32 {
        match self {
            Topology::Mesh(m) => m.diameter(),
            Topology::Torus(t) => t.diameter(),
            Topology::Hypercube(h) => h.diameter(),
        }
    }

    /// Minimal hop count between two nodes.
    #[must_use]
    pub fn min_hops(&self, a: &Coord, b: &Coord) -> u32 {
        match self {
            Topology::Mesh(m) => m.min_hops(a, b),
            Topology::Torus(t) => t.min_hops(a, b),
            Topology::Hypercube(h) => h.min_hops(a, b),
        }
    }

    /// Per-hop distance-vector increment `Δ` for the hop `from → to`
    /// (Fig. 4 of the paper: `Δ := Y − X`, with travel-direction semantics
    /// on the torus and XOR semantics on the hypercube).
    ///
    /// # Errors
    /// [`TopologyError::NotNeighbors`] if the hop is not a single link.
    pub fn hop_displacement(&self, from: &Coord, to: &Coord) -> Result<Coord, TopologyError> {
        let d = match self {
            Topology::Mesh(m) => m.hop_displacement(from, to),
            Topology::Torus(t) => t.hop_displacement(from, to),
            Topology::Hypercube(h) => h.hop_displacement(from, to),
        };
        d.ok_or(TopologyError::NotNeighbors(*from, *to))
    }

    /// Combines an accumulated distance vector with a per-hop increment:
    /// addition on mesh/torus, XOR on the hypercube (§5).
    #[must_use]
    pub fn accumulate(&self, v: &Coord, delta: &Coord) -> Coord {
        match self {
            Topology::Mesh(_) => *v + *delta,
            Topology::Torus(t) => t.reduce(&(*v + *delta)),
            Topology::Hypercube(_) => v.xor(delta),
        }
    }

    /// Victim-side inversion `S = D ⊖ V` (§5): subtraction on the mesh,
    /// modular subtraction on the torus, XOR on the hypercube.
    #[must_use]
    pub fn source_from_distance(&self, dest: &Coord, v: &Coord) -> Option<Coord> {
        match self {
            Topology::Mesh(m) => m.source_from_distance(dest, v),
            Topology::Torus(t) => t.source_from_distance(dest, v),
            Topology::Hypercube(h) => h.source_from_distance(dest, v),
        }
    }

    /// The travelled distance vector `D ⊖ S` an honestly marked packet
    /// from `src` to `dest` must carry on delivery, in canonical form.
    #[must_use]
    pub fn expected_distance(&self, src: &Coord, dest: &Coord) -> Coord {
        match self {
            Topology::Mesh(_) => *dest - *src,
            Topology::Torus(t) => t.reduce(&(*dest - *src)),
            Topology::Hypercube(_) => dest.xor(src),
        }
    }

    /// The direction of travel for a hop from `from` to neighbouring `to`.
    #[must_use]
    pub fn hop_direction(&self, from: &Coord, to: &Coord) -> Option<Direction> {
        match self {
            Topology::Mesh(m) => m.hop_direction(from, to),
            Topology::Torus(t) => t.hop_direction(from, to),
            Topology::Hypercube(h) => h.hop_direction(from, to),
        }
    }

    /// Iterator over every node coordinate, in index order.
    pub fn all_nodes(&self) -> impl Iterator<Item = Coord> + '_ {
        (0..self.num_nodes() as u32).map(move |i| self.coord(NodeId(i)))
    }

    /// Human-readable description, e.g. `4x4 mesh` or `3-cube hypercube`.
    #[must_use]
    pub fn describe(&self) -> String {
        match self {
            Topology::Mesh(m) => format!(
                "{} mesh",
                m.dims()
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("x")
            ),
            Topology::Torus(t) => format!(
                "{} torus",
                t.dims()
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join("x")
            ),
            Topology::Hypercube(h) => format!("{}-cube hypercube", h.ndims()),
        }
    }
}

impl fmt::Display for Topology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.describe())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn samples() -> Vec<Topology> {
        vec![
            Topology::mesh2d(4),
            Topology::mesh(&[3, 4, 5]),
            Topology::torus(&[4, 4]),
            Topology::torus(&[3, 5]),
            Topology::hypercube(3),
            Topology::hypercube(5),
        ]
    }

    #[test]
    fn all_nodes_roundtrip() {
        for topo in samples() {
            let mut count = 0u64;
            for (i, c) in topo.all_nodes().enumerate() {
                assert!(topo.contains(&c));
                assert_eq!(topo.index(&c), NodeId(i as u32));
                count += 1;
            }
            assert_eq!(count, topo.num_nodes());
        }
    }

    #[test]
    fn neighbors_symmetric() {
        for topo in samples() {
            for c in topo.all_nodes() {
                for (_, nb) in topo.neighbors(&c) {
                    assert!(
                        topo.neighbors(&nb).iter().any(|(_, back)| *back == c),
                        "{topo}: neighbour relation not symmetric at {c} / {nb}"
                    );
                }
            }
        }
    }

    #[test]
    fn accumulate_along_any_walk_recovers_source() {
        // Walks that wander (including revisits) still yield the correct
        // source — the core DDPM invariant under adaptive routing.
        for topo in samples() {
            let src = topo.coord(NodeId(1));
            let mut cur = src;
            let mut v = Coord::zero(topo.ndims());
            // Deterministic pseudo-random-ish walk: always pick the
            // neighbour whose index minimises (index * 7 + step) mod n.
            for step in 0..50u64 {
                let nbs = topo.neighbors(&cur);
                let pick = nbs[(step as usize * 7 + cur.l1_norm() as usize) % nbs.len()].1;
                let delta = topo.hop_displacement(&cur, &pick).unwrap();
                v = topo.accumulate(&v, &delta);
                cur = pick;
                assert_eq!(
                    topo.source_from_distance(&cur, &v),
                    Some(src),
                    "{topo}: walk broke source recovery at step {step}"
                );
            }
        }
    }

    #[test]
    fn expected_distance_matches_min_walk() {
        for topo in samples() {
            let a = topo.coord(NodeId(0));
            let b = topo.coord(NodeId((topo.num_nodes() - 1) as u32));
            let v = topo.expected_distance(&a, &b);
            assert_eq!(topo.source_from_distance(&b, &v), Some(a));
        }
    }

    #[test]
    fn describe_strings() {
        assert_eq!(Topology::mesh2d(4).describe(), "4x4 mesh");
        assert_eq!(Topology::torus(&[4, 4]).describe(), "4x4 torus");
        assert_eq!(Topology::hypercube(3).describe(), "3-cube hypercube");
    }

    #[test]
    fn degree_diameter_dispatch() {
        assert_eq!(Topology::mesh2d(4).diameter(), 6);
        assert_eq!(Topology::torus(&[4, 4]).diameter(), 4);
        assert_eq!(Topology::hypercube(6).diameter(), 6);
        assert_eq!(Topology::mesh(&[4, 4, 4]).degree(), 6);
    }

    #[test]
    fn radix2_ring_dedup_neighbors() {
        // In a 2-ary torus dimension, +1 and −1 reach the same node; the
        // neighbour list must not double-count it.
        let topo = Topology::torus(&[2, 4]);
        let c = Coord::new(&[0, 0]);
        let nbs = topo.neighbors(&c);
        let mut targets: Vec<_> = nbs.iter().map(|(_, n)| *n).collect();
        targets.sort_by_key(|c| topo.index(c).0);
        targets.dedup();
        assert_eq!(targets.len(), nbs.len(), "duplicate neighbour entries");
        assert_eq!(nbs.len(), 3); // one in dim 0 (radix 2), two in dim 1
    }

    #[test]
    fn hop_displacement_error_for_non_neighbors() {
        let topo = Topology::mesh2d(4);
        let err = topo
            .hop_displacement(&Coord::new(&[0, 0]), &Coord::new(&[2, 2]))
            .unwrap_err();
        assert!(matches!(err, TopologyError::NotNeighbors(_, _)));
    }
}
