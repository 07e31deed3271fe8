//! 2D mesh and torus: one grid topology with dimension-order routing, for
//! cross-topology ablations.
//!
//! Mesh fabrics are the workhorse of modern manycore interconnects, and
//! the EM-X's contemporaries were often evaluated against tori; these
//! models let the ablations ask how much of the EM-X's behaviour is
//! Omega-specific. The processors sit on a `width x height` grid, as close
//! to square as possible (surplus nodes sit unused), and every node has
//! four unidirectional output links, each a one-port bundle of the
//! [fabric](crate::fabric).
//!
//! Packets route X first, then Y. The torus ([`NetModelKind::Torus2D`])
//! has wraparound links and takes the shorter way around each ring
//! (forward on a tie); the mesh ([`NetModelKind::Mesh2D`]) has none, so
//! edge nodes pay the full Manhattan distance. Within a dimension the
//! coordinate moves one way only, and every X link precedes every Y link:
//! on the mesh the channel dependency graph is therefore acyclic — the
//! classic dimension-order deadlock-freedom argument — and on both,
//! same-pair packets traverse the identical link sequence, so they cannot
//! overtake.
//!
//! [`NetModelKind::Torus2D`]: emx_core::NetModelKind::Torus2D
//! [`NetModelKind::Mesh2D`]: emx_core::NetModelKind::Mesh2D

use std::ops::Range;

use crate::fabric::Topology;

/// Link directions, as the offset of a node's four output ports.
const X_PLUS: usize = 0;
const X_MINUS: usize = 1;
const Y_PLUS: usize = 2;
const Y_MINUS: usize = 3;

/// A `width x height` grid, with or without wraparound links.
pub(crate) struct Grid {
    width: usize,
    height: usize,
    wrap: bool,
}

impl Grid {
    /// The grid covering at least `num_pes` nodes: a torus if `wrap`, else
    /// a mesh.
    pub(crate) fn new(num_pes: usize, wrap: bool) -> Grid {
        let width = ((num_pes as f64).sqrt().ceil() as usize).max(1);
        Grid {
            width,
            height: num_pes.div_ceil(width),
            wrap,
        }
    }

    /// Steps from `a` to `b` along a dimension of `len` nodes, and whether
    /// they go forward (toward higher coordinates).
    fn steps(&self, a: usize, b: usize, len: usize) -> (usize, bool) {
        if !self.wrap {
            return (a.abs_diff(b), b > a);
        }
        let fwd = (b + len - a) % len;
        let bwd = (a + len - b) % len;
        if fwd <= bwd {
            (fwd, true)
        } else {
            (bwd, false)
        }
    }

    /// Grid shape `(width, height)`.
    #[cfg(test)]
    pub(crate) fn shape(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    fn coords(&self, pe: usize) -> (usize, usize) {
        (pe % self.width, pe / self.width)
    }
}

impl Topology for Grid {
    fn ports(&self) -> usize {
        self.width * self.height * 4
    }

    fn path(&self, src: usize, dst: usize, out: &mut Vec<Range<usize>>) -> u32 {
        let (w, h) = (self.width, self.height);
        let (mut x, mut y) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        let (xs, xfwd) = self.steps(x, dx, w);
        for _ in 0..xs {
            let port = (y * w + x) * 4 + if xfwd { X_PLUS } else { X_MINUS };
            out.push(port..port + 1);
            x = if xfwd { (x + 1) % w } else { (x + w - 1) % w };
        }
        let (ys, yfwd) = self.steps(y, dy, h);
        for _ in 0..ys {
            let port = (y * w + x) * 4 + if yfwd { Y_PLUS } else { Y_MINUS };
            out.push(port..port + 1);
            y = if yfwd { (y + 1) % h } else { (y + h - 1) % h };
        }
        (xs + ys) as u32
    }

    fn hops(&self, src: usize, dst: usize) -> u32 {
        let (x, y) = self.coords(src);
        let (dx, dy) = self.coords(dst);
        (self.steps(x, dx, self.width).0 + self.steps(y, dy, self.height).0) as u32
    }

    fn name(&self) -> &'static str {
        if self.wrap {
            "torus-2d"
        } else {
            "mesh-2d"
        }
    }
}

/// The tests of one grid model, as a `tests` module: the mesh and the
/// torus are one [`Grid`] but two models, and the crate root instantiates
/// this once for each (`mesh::tests`, `torus::tests`). `$wrap` is the
/// model's wraparound setting.
#[cfg(test)]
macro_rules! grid_model_tests {
    ($model:expr, $wrap:expr) => {
        mod tests {
            use emx_core::{Cycle, NetConfig, PeId};
            use $crate::grid::Grid;
            use $crate::{build_network, Network};

            fn net(pes: usize) -> Box<dyn Network> {
                let cfg = NetConfig {
                    model: $model,
                    ..NetConfig::default()
                };
                build_network(&cfg, pes).unwrap()
            }

            #[test]
            fn shape_covers_the_machine() {
                for pes in [1usize, 2, 7, 16, 64, 80] {
                    let (w, h) = Grid::new(pes, $wrap).shape();
                    assert!(w * h >= pes, "{pes}: {w}x{h}");
                }
                assert_eq!(Grid::new(16, $wrap).shape(), (4, 4));
            }

            #[test]
            fn uncontended_latency_is_hops_plus_one() {
                // On the 4x4 grid, (0,0) -> (2,2) is 2 + 2 = 4 hops either
                // way round: latency 5.
                let mut n = net(16);
                let dst = PeId(2 * 4 + 2);
                assert_eq!(n.hops(PeId(0), dst), 4);
                assert_eq!(n.route(Cycle::new(10), PeId(0), dst), Cycle::new(15));
            }

            #[test]
            fn contention_serializes_shared_links() {
                let mut n = net(16);
                let a = n.route(Cycle::new(0), PeId(0), PeId(2));
                let b = n.route(Cycle::new(0), PeId(0), PeId(2));
                assert!(b > a);
                assert!(n.stats().contention_wait.get() > 0);
            }

            #[test]
            fn non_overtaking_per_pair() {
                let mut n = net(64);
                let mut last = Cycle::ZERO;
                for i in 0..100u64 {
                    n.route(
                        Cycle::new(i),
                        PeId((i % 64) as u16),
                        PeId(((i * 11) % 64) as u16),
                    );
                    let arr = n.route(Cycle::new(i), PeId(5), PeId(50));
                    assert!(arr >= last);
                    last = arr;
                }
            }

            #[test]
            fn local_delivery_one_cycle() {
                let mut n = net(9);
                assert_eq!(n.route(Cycle::new(3), PeId(4), PeId(4)), Cycle::new(4));
            }

            #[test]
            fn rejects_empty() {
                let cfg = NetConfig {
                    model: $model,
                    ..NetConfig::default()
                };
                assert!(build_network(&cfg, 0).is_err());
            }
        }
    };
}
#[cfg(test)]
pub(crate) use grid_model_tests;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{build_network, Network};
    use emx_core::{NetConfig, NetModelKind, PeId};

    fn net(pes: usize, model: NetModelKind) -> Box<dyn Network> {
        let cfg = NetConfig {
            model,
            ..NetConfig::default()
        };
        build_network(&cfg, pes).unwrap()
    }

    #[test]
    fn wraparound_takes_the_short_way() {
        // On the 4x4 torus, (0,0) -> (3,0) is one hop backwards around the
        // X ring.
        let n = net(16, NetModelKind::Torus2D);
        assert_eq!(n.hops(PeId(0), PeId(3)), 1);
        // (0,0) -> (0,3): one hop backwards around the Y ring.
        assert_eq!(n.hops(PeId(0), PeId(12)), 1);
        // Maximum distance on a 4x4 torus is 2+2.
        assert_eq!(n.hops(PeId(0), PeId(10)), 4);
    }

    #[test]
    fn no_wraparound_corner_to_corner_pays_full_manhattan_distance() {
        // On the 4x4 mesh, (0,0) -> (3,0) walks 3 hops where the torus takes
        // one wrap hop.
        let n = net(16, NetModelKind::Mesh2D);
        assert_eq!(n.hops(PeId(0), PeId(3)), 3);
        // (0,0) -> (0,3) likewise along Y.
        assert_eq!(n.hops(PeId(0), PeId(12)), 3);
        // (0,0) -> (3,3): the full diameter, 6 hops.
        assert_eq!(n.hops(PeId(0), PeId(15)), 6);
    }

    #[test]
    fn xy_routing_orders_x_before_y_and_moves_monotonically() {
        // The dimension-order deadlock-freedom argument, checked
        // structurally over every pair on both grids: once a path takes a
        // Y link it never takes another X link, and each dimension moves
        // in one direction only — so the mesh's channel dependency graph
        // is acyclic.
        for wrap in [false, true] {
            let g = Grid::new(16, wrap);
            for s in 0..16 {
                for d in 0..16 {
                    let mut path = Vec::new();
                    let hops = g.path(s, d, &mut path);
                    let mut seen_y = false;
                    let mut x_dir = None;
                    let mut y_dir = None;
                    for port in &path {
                        let dir = port.start % 4;
                        if dir == X_PLUS || dir == X_MINUS {
                            assert!(!seen_y, "{s}->{d}: X link after a Y link");
                            assert_eq!(*x_dir.get_or_insert(dir), dir, "{s}->{d}: X turned");
                        } else {
                            seen_y = true;
                            assert_eq!(*y_dir.get_or_insert(dir), dir, "{s}->{d}: Y turned");
                        }
                    }
                    assert_eq!(path.len() as u32, hops);
                    assert_eq!(hops, g.hops(s, d));
                }
            }
        }
    }
}
