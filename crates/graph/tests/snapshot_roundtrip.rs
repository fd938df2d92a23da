//! Round-trip guarantees of the binary snapshot container: `save → load` is
//! the identity on the *exact* in-memory representation — including
//! tombstoned slots, which the text writer compacts away — and serialization
//! is deterministic byte for byte.

use bgpq_graph::io::snapshot::{
    encode_graph, read_graph_snapshot, write_graph_snapshot, Section, SnapshotWriter,
};
use bgpq_graph::io::{load_graph_snapshot, save_graph_snapshot};
use bgpq_graph::{Graph, GraphBuilder, NodeId, Value};
use std::io::Cursor;

/// Slot-exact equality: snapshots preserve node ids, tombstones, labels,
/// values and adjacency verbatim (unlike the text round trip, which only
/// preserves live content under compacted ids).
fn assert_identical(a: &Graph, b: &Graph) {
    assert_eq!(a.node_count(), b.node_count(), "slot count");
    assert_eq!(a.live_node_count(), b.live_node_count(), "live count");
    assert_eq!(a.edge_count(), b.edge_count(), "edge count");
    assert_eq!(a.distinct_label_count(), b.distinct_label_count());
    for (la, lb) in a.interner().iter().zip(b.interner().iter()) {
        assert_eq!(la, lb, "interner entry");
    }
    for v in a.nodes() {
        assert_eq!(a.is_live(v), b.is_live(v), "liveness of {v}");
        if !a.is_live(v) {
            continue;
        }
        assert_eq!(a.label(v), b.label(v), "label of {v}");
        assert_eq!(a.label_name(v), b.label_name(v), "label name of {v}");
        match (a.value(v), b.value(v)) {
            // NaN != NaN under PartialEq; the container must still
            // preserve the exact bit pattern.
            (Value::Float(x), Value::Float(y)) => {
                assert_eq!(x.to_bits(), y.to_bits(), "float bits of {v}")
            }
            (va, vb) => assert_eq!(va, vb, "value of {v}"),
        }
        assert_eq!(a.out_neighbors(v), b.out_neighbors(v), "out of {v}");
        assert_eq!(a.in_neighbors(v), b.in_neighbors(v), "in of {v}");
    }
    for label in a.interner().iter().map(|(l, _)| l) {
        assert_eq!(
            a.nodes_with_label(label),
            b.nodes_with_label(label),
            "label index bucket {label:?}"
        );
    }
}

fn snapshot_bytes(g: &Graph) -> Vec<u8> {
    let mut buf = Vec::new();
    write_graph_snapshot(g, &mut buf).unwrap();
    buf
}

fn round_trip(g: &Graph) -> Graph {
    read_graph_snapshot(Cursor::new(snapshot_bytes(g))).unwrap()
}

/// Tiny deterministic generator (xorshift) so the suite needs no deps.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Every value type, shared labels, unicode strings, non-trivial adjacency.
fn sample_graph() -> Graph {
    let mut b = GraphBuilder::new();
    let m1 = b.add_node("movie", Value::str("Argo"));
    let m2 = b.add_node("movie", Value::str("naïve — ünïcode"));
    let y = b.add_node("year", Value::Int(-2012));
    let r = b.add_node("rating", Value::Float(7.7));
    let f = b.add_node("flag", Value::Bool(true));
    let n = b.add_node("misc", Value::Null);
    b.add_edge(y, m1).unwrap();
    b.add_edge(y, m2).unwrap();
    b.add_edge(m1, r).unwrap();
    b.add_edge(m1, f).unwrap();
    b.add_edge(m2, n).unwrap();
    b.add_edge(n, y).unwrap();
    b.build()
}

fn random_graph(seed: u64, nodes: usize, edges: usize) -> Graph {
    let mut rng = Rng(seed | 1);
    let mut b = GraphBuilder::new();
    let ids: Vec<NodeId> = (0..nodes)
        .map(|i| {
            let value = match rng.below(5) {
                0 => Value::Null,
                1 => Value::Bool(rng.below(2) == 0),
                2 => Value::Int(rng.next() as i64),
                3 => Value::Float(f64::from_bits(rng.next())),
                _ => Value::str(format!("s{}", rng.below(1000))),
            };
            b.add_node(&format!("l{}", i % 7), value)
        })
        .collect();
    for _ in 0..edges {
        let src = ids[rng.below(ids.len())];
        let dst = ids[rng.below(ids.len())];
        b.add_edge(src, dst).unwrap();
    }
    b.build()
}

#[test]
fn sample_graph_round_trips_slot_exactly() {
    let g = sample_graph();
    assert_identical(&g, &round_trip(&g));
}

#[test]
fn empty_graph_round_trips() {
    let g = Graph::empty();
    let loaded = round_trip(&g);
    assert_eq!(loaded.node_count(), 0);
    assert_eq!(loaded.edge_count(), 0);
    assert_eq!(loaded.distinct_label_count(), 0);
}

#[test]
fn serialization_is_deterministic() {
    let g = random_graph(99, 120, 400);
    assert_eq!(snapshot_bytes(&g), snapshot_bytes(&g));
    // And stable across a reload: load(save(g)) serializes identically.
    assert_eq!(snapshot_bytes(&g), snapshot_bytes(&round_trip(&g)));
}

#[test]
fn random_graphs_round_trip_across_seeds_and_sizes() {
    for seed in 0..20u64 {
        let nodes = 10 + (seed as usize * 13) % 150;
        let edges = nodes * 3;
        let g = random_graph(seed, nodes, edges);
        assert_identical(&g, &round_trip(&g));
    }
}

#[test]
fn tombstoned_slots_are_preserved_verbatim() {
    let mut g = random_graph(7, 60, 200);
    let mut rng = Rng(1234);
    // Delete a third of the nodes and a handful of edges, then insert a few
    // more nodes so live slots surround tombstones on both sides.
    for _ in 0..20 {
        let v = NodeId(rng.below(60) as u32);
        if g.is_live(v) {
            g.delete_node(v).unwrap();
        }
    }
    let fresh = g.insert_node("l0", Value::Int(31337));
    let anchor = g
        .nodes()
        .find(|&v| g.is_live(v) && v != fresh)
        .expect("a live node survives");
    g.insert_edge(anchor, fresh).unwrap();
    assert!(g.live_node_count() < g.node_count(), "deletions happened");

    let loaded = round_trip(&g);
    assert_identical(&g, &loaded);
    // Tombstones specifically: identical per-slot liveness map.
    let lives = |g: &Graph| -> Vec<bool> { g.nodes().map(|v| g.is_live(v)).collect() };
    assert_eq!(lives(&g), lives(&loaded));
}

#[test]
fn extreme_values_survive_bit_exactly() {
    let mut b = GraphBuilder::new();
    let values = [
        Value::Int(i64::MIN),
        Value::Int(i64::MAX),
        Value::Float(f64::NAN),
        Value::Float(f64::NEG_INFINITY),
        Value::Float(-0.0),
        Value::str(""),
        Value::str("a\tb\nc\"d\\e"),
    ];
    for v in values {
        b.add_node("x", v);
    }
    let g = b.build();
    assert_identical(&g, &round_trip(&g));
}

#[test]
fn file_level_save_and_load_round_trip() {
    let dir = std::env::temp_dir().join("bgpq_snapshot_roundtrip");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("sample.bgpq");
    let g = sample_graph();
    save_graph_snapshot(&g, &path).unwrap();
    let loaded = load_graph_snapshot(&path).unwrap();
    assert_identical(&g, &loaded);
    std::fs::remove_file(path).ok();
}

/// Forward compatibility: a reader must skip section ids it does not know,
/// so a newer writer can append sections without breaking old readers.
#[test]
fn unknown_sections_are_tolerated() {
    let g = sample_graph();
    // A section from a newer writer, and the retired id 9 that older files
    // still carry.
    for id in [0xBEEF, 9] {
        let mut writer = SnapshotWriter::new();
        encode_graph(&g, &mut writer);
        writer.add_section(Section::from_id(id), b"opaque payload".to_vec());
        let mut buf = Vec::new();
        writer.write_to(&mut buf).unwrap();
        let loaded = read_graph_snapshot(Cursor::new(buf)).unwrap();
        assert_identical(&g, &loaded);
    }
}
