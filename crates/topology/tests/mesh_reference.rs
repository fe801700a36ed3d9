//! `Mesh` adjacency is stride arithmetic on node ids. This suite keeps the
//! coordinate version it replaced — decode to a `Coord`, step one axis,
//! re-encode with `node_at` — as a reference, and requires the two to agree
//! on every query, on random meshes of 1–4 dimensions with extents 1–9
//! (size-1 axes give two dimensions the same stride).

use proptest::prelude::*;
use std::panic::{catch_unwind, AssertUnwindSafe};
use wormcast_topology::{ChannelId, Mesh, NodeId, Sign, Topology};

/// The coordinate-based adjacency, as `Mesh` computed it before.
mod reference {
    use super::*;

    pub fn neighbor(m: &Mesh, n: NodeId, dim: usize, sign: Sign) -> Option<NodeId> {
        assert!(dim < m.ndims(), "dim {dim} out of range");
        let c = m.coord_of(n);
        let pos = c.get(dim) as i32 + sign.delta();
        if pos < 0 || pos >= m.dim_size(dim) as i32 {
            None
        } else {
            Some(m.node_at(&c.with(dim, pos as u16)))
        }
    }

    fn slot(dim: usize, sign: Sign) -> u32 {
        2 * dim as u32 + u32::from(sign == Sign::Minus)
    }

    pub fn channel(m: &Mesh, from: NodeId, dim: usize, sign: Sign) -> Option<ChannelId> {
        neighbor(m, from, dim, sign)?;
        Some(ChannelId(from.0 * 2 * m.ndims() as u32 + slot(dim, sign)))
    }

    pub fn channel_exists(m: &Mesh, ch: ChannelId) -> bool {
        if ch.0 as usize >= m.num_channels() {
            return false;
        }
        let (node, dim, sign) = m.channel_parts(ch);
        neighbor(m, node, dim, sign).is_some()
    }

    pub fn channels(m: &Mesh) -> Vec<ChannelId> {
        (0..m.num_channels() as u32)
            .map(ChannelId)
            .filter(|&c| channel_exists(m, c))
            .collect()
    }

    pub fn channel_between(m: &Mesh, from: NodeId, to: NodeId) -> Option<ChannelId> {
        let cf = m.coord_of(from);
        let ct = m.coord_of(to);
        if cf.manhattan(&ct) != 1 {
            return None;
        }
        for d in 0..m.ndims() {
            if let Some(sign) = Sign::towards(cf.get(d), ct.get(d)) {
                return channel(m, from, d, sign);
            }
        }
        None
    }

    pub fn channel_endpoints(m: &Mesh, ch: ChannelId) -> (NodeId, NodeId) {
        let (node, dim, sign) = m.channel_parts(ch);
        let dst = neighbor(m, node, dim, sign)
            .unwrap_or_else(|| panic!("channel {ch} falls off the mesh boundary"));
        (node, dst)
    }
}

/// The panic message `f` dies with, or `None` if it returns.
fn panic_message<R>(f: impl FnOnce() -> R) -> Option<String> {
    let payload = catch_unwind(AssertUnwindSafe(f)).err()?;
    Some(match payload.downcast::<String>() {
        Ok(s) => *s,
        Err(p) => p
            .downcast::<&str>()
            .map(|s| s.to_string())
            .unwrap_or_default(),
    })
}

/// Every adjacency query on `m` agrees with the reference.
fn assert_matches_reference(m: &Mesh) {
    let dirs: Vec<(usize, Sign)> = (0..m.ndims())
        .flat_map(|d| [(d, Sign::Plus), (d, Sign::Minus)])
        .collect();
    for n in m.nodes() {
        for &(d, s) in &dirs {
            assert_eq!(
                m.neighbor(n, d, s),
                reference::neighbor(m, n, d, s),
                "neighbor({n}, {d}, {s:?}) on {:?}",
                m.dims()
            );
            assert_eq!(
                m.channel(n, d, s),
                reference::channel(m, n, d, s),
                "channel({n}, {d}, {s:?}) on {:?}",
                m.dims()
            );
        }
        for to in m.nodes() {
            assert_eq!(
                m.channel_between(n, to),
                reference::channel_between(m, n, to),
                "channel_between({n}, {to}) on {:?}",
                m.dims()
            );
        }
    }
    // One id past the dense space too: both report it absent.
    for ch in (0..=m.num_channels() as u32).map(ChannelId) {
        let exists = m.channel_exists(ch);
        assert_eq!(
            exists,
            reference::channel_exists(m, ch),
            "channel_exists({ch})"
        );
        if exists {
            assert_eq!(
                m.channel_endpoints(ch),
                reference::channel_endpoints(m, ch),
                "channel_endpoints({ch}) on {:?}",
                m.dims()
            );
        } else if (ch.0 as usize) < m.num_channels() {
            assert_eq!(
                panic_message(|| m.channel_endpoints(ch)),
                panic_message(|| reference::channel_endpoints(m, ch)),
                "channel_endpoints({ch}) boundary panic on {:?}",
                m.dims()
            );
        }
    }
    assert_eq!(
        m.channels().collect::<Vec<_>>(),
        reference::channels(m),
        "channels() on {:?}",
        m.dims()
    );
}

/// Out-of-range nodes and dims panic with the reference's messages.
fn assert_panics_match_reference(m: &Mesh) {
    let n = m.num_nodes() as u32;
    let bad = NodeId(n);
    let far = NodeId(n + 7);
    let ok = NodeId(n - 1);
    let nd = m.ndims();
    let cases: Vec<(Option<String>, Option<String>)> = vec![
        (
            panic_message(|| m.neighbor(bad, 0, Sign::Plus)),
            panic_message(|| reference::neighbor(m, bad, 0, Sign::Plus)),
        ),
        (
            panic_message(|| m.neighbor(ok, nd, Sign::Minus)),
            panic_message(|| reference::neighbor(m, ok, nd, Sign::Minus)),
        ),
        (
            panic_message(|| m.neighbor(bad, nd, Sign::Minus)),
            panic_message(|| reference::neighbor(m, bad, nd, Sign::Minus)),
        ),
        (
            panic_message(|| m.channel(far, 0, Sign::Minus)),
            panic_message(|| reference::channel(m, far, 0, Sign::Minus)),
        ),
        (
            panic_message(|| m.channel_between(bad, ok)),
            panic_message(|| reference::channel_between(m, bad, ok)),
        ),
        (
            panic_message(|| m.channel_between(ok, far)),
            panic_message(|| reference::channel_between(m, ok, far)),
        ),
        (
            panic_message(|| m.channel_between(far, bad)),
            panic_message(|| reference::channel_between(m, far, bad)),
        ),
        (
            panic_message(|| m.channel_endpoints(ChannelId(m.num_channels() as u32))),
            panic_message(|| reference::channel_endpoints(m, ChannelId(m.num_channels() as u32))),
        ),
    ];
    for (i, (got, want)) in cases.into_iter().enumerate() {
        assert!(want.is_some(), "case {i}: the reference should panic");
        assert_eq!(got, want, "case {i} on {:?}", m.dims());
    }
}

#[test]
fn unit_axes_share_strides() {
    // [4, 1, 2]: dims 1 and 2 both have stride 4, but only dim 2 steps.
    let m = Mesh::new(&[4, 1, 2]);
    assert_matches_reference(&m);
    assert_panics_match_reference(&m);
    assert_eq!(
        m.channel_between(NodeId(0), NodeId(4)),
        m.channel(NodeId(0), 2, Sign::Plus)
    );
    assert_eq!(m.neighbor(NodeId(0), 1, Sign::Plus), None);
}

#[test]
fn paper_cube_matches_reference() {
    let m = Mesh::cube(8);
    assert_matches_reference(&m);
    assert_panics_match_reference(&m);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn stride_adjacency_matches_coordinate_reference(
        dims in proptest::collection::vec(1u16..=9, 1usize..=4),
    ) {
        // Capped so that every ordered node pair stays cheap to check.
        prop_assume!(dims.iter().map(|&d| u32::from(d)).product::<u32>() <= 256);
        let m = Mesh::new(&dims);
        assert_matches_reference(&m);
        assert_panics_match_reference(&m);
    }
}
