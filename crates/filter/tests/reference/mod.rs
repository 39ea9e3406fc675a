//! A reference walker for the paper's profile tree, written against the
//! checkpoint format rather than the library: it reads the tree section
//! of a format 5 snapshot image with the public [`ByteReader`], derives
//! the scan orderings the codec leaves out, and matches an event the
//! way §4.2 counts it — a linear scan of a node's edges in its `visit`
//! order, one operation per edge tested, stopping at the edge that
//! holds the value or where the lookup table proves it absent; binary,
//! interpolation and hash search charged from the node's tables; one
//! operation for a star edge. It counts operations in total and per
//! level, and so is the oracle the automaton's per-event counts and
//! Eq. 2's per-level breakdown are held to.

use ens_filter::persist::ByteReader;
use ens_filter::{NodeOrdering, SearchStrategy, TreeConfig};
use ens_types::{AttrId, IndexInterval, IndexedEvent, ProfileId, Schema};

/// A node of the tree as the format writes it.
pub enum Node {
    /// A leaf: a list of the pool.
    Leaf(u32),
    /// The leaf that notifies nobody.
    Empty,
    Inner {
        attr: AttrId,
        /// Ascending.
        edges: Vec<(IndexInterval, Node)>,
        ordering: NodeOrdering,
        /// `*` (true) or `(*)` (false), and where it leads.
        star: Option<(bool, Box<Node>)>,
    },
}

/// The tree section of a snapshot image.
pub struct Tree {
    pub schema: Schema,
    pub config: TreeConfig,
    pub order: Vec<AttrId>,
    pub pool: Vec<Vec<ProfileId>>,
    pub root: Node,
}

/// One event's walk: the profiles reached, ascending, and the
/// operations spent, in total and per level.
pub struct Walk {
    pub profiles: Vec<ProfileId>,
    pub ops: u64,
    pub per_level: Vec<u64>,
}

impl Tree {
    /// Reads the tree section of a format 5 `image`.
    pub fn read(image: &[u8]) -> Tree {
        let mut r = ByteReader::verify_crc(image).unwrap();
        assert_eq!(r.u32().unwrap(), 0x454E_5346, "snapshot magic");
        assert_eq!(r.u32().unwrap(), 5, "format 5");
        let schema: Schema = r.serde().unwrap();
        let config: TreeConfig = r.serde().unwrap();
        let order: Vec<AttrId> = r.serde().unwrap();
        assert_eq!(r.seq_len(1).unwrap(), 0, "format 5 writes no partitions");
        r.u64().unwrap();
        // Each list is written as the ids it drops from the one before
        // it and the ids it adds.
        let mut pool: Vec<Vec<ProfileId>> = Vec::new();
        let mut prev: Vec<u32> = Vec::new();
        for _ in 0..r.seq_len(1).unwrap() {
            let removed = r.vec_u32_packed().unwrap();
            let added = r.vec_u32_packed().unwrap();
            prev.retain(|id| !removed.contains(id));
            prev.extend(added);
            prev.sort_unstable();
            pool.push(prev.iter().map(|&id| ProfileId::new(id)).collect());
        }
        let mut tree = Tree {
            schema,
            config,
            order,
            pool,
            root: Node::Empty,
        };
        tree.root = tree.read_node(&mut r);
        tree
    }

    fn read_node(&self, r: &mut ByteReader<'_>) -> Node {
        match r.u8().unwrap() {
            0 => Node::Leaf(r.vu32().unwrap()),
            2 => Node::Empty,
            tag => {
                assert_eq!(tag, 1, "node tag");
                let attr = AttrId::new(r.vu32().unwrap());
                let mut intervals = Vec::new();
                for _ in 0..r.seq_len(2).unwrap() {
                    let lo = r.vu64().unwrap();
                    intervals.push(IndexInterval::new(lo, lo + r.vu64().unwrap()));
                }
                let ordering = match r.u8().unwrap() {
                    0 => self.derive(attr, &intervals),
                    _ => NodeOrdering {
                        visit: r.vec_u32_packed().unwrap(),
                        hit_cost: r.vec_u32_packed().unwrap(),
                        miss_cost: r.vec_u32_packed().unwrap(),
                    },
                };
                let star = match r.u8().unwrap() {
                    0 => None,
                    all => Some((all == 1, Box::new(self.read_node(r)))),
                };
                let edges = intervals
                    .into_iter()
                    .map(|interval| (interval, self.read_node(r)))
                    .collect();
                Node::Inner {
                    attr,
                    edges,
                    ordering,
                    star,
                }
            }
        }
    }

    /// The ordering the format leaves out: the strategy's, computed
    /// from the edges with no probability mass; under the
    /// early-termination ablation a linear miss scans the whole node;
    /// an edge-less node charges nothing for its star edge.
    fn derive(&self, attr: AttrId, intervals: &[IndexInterval]) -> NodeOrdering {
        let m = intervals.len();
        if m == 0 {
            return NodeOrdering {
                visit: Vec::new(),
                hit_cost: Vec::new(),
                miss_cost: vec![0],
            };
        }
        let size = self.schema.attribute(attr).domain().size();
        let (zeros, gaps) = (vec![0.0; m], vec![0.0; m + 1]);
        let search = self.config.search;
        let mut ordering =
            NodeOrdering::compute_with_geometry(search, &zeros, &zeros, &gaps, intervals, size);
        if self.config.disable_early_termination && matches!(search, SearchStrategy::Linear(_)) {
            ordering.miss_cost.fill(m as u32);
        }
        ordering
    }

    /// Matches the pre-resolved `event`.
    pub fn walk(&self, event: &IndexedEvent) -> Walk {
        let mut walk = Walk {
            profiles: Vec::new(),
            ops: 0,
            per_level: vec![0; self.order.len()],
        };
        self.walk_from(&self.root, event, 0, &mut walk);
        walk
    }

    fn walk_from(&self, node: &Node, event: &IndexedEvent, level: usize, walk: &mut Walk) {
        let (attr, edges, ordering, star) = match node {
            Node::Leaf(l) => return walk.profiles.extend_from_slice(&self.pool[*l as usize]),
            Node::Empty => return,
            Node::Inner {
                attr,
                edges,
                ordering,
                star,
            } => (attr, edges, ordering, star),
        };
        assert_eq!(self.order[level], *attr, "a level tests its attribute");
        let charge = |walk: &mut Walk, ops: u64| {
            walk.ops += ops;
            walk.per_level[level] += ops;
        };
        let star_child = star.as_ref().map(|(_, child)| &**child);
        let idx = match event.get(*attr) {
            // A missing value, and any value at an edge-less node, takes
            // the star edge at one operation.
            Some(idx) if !edges.is_empty() => idx,
            _ => {
                if let Some(child) = star_child {
                    charge(walk, 1);
                    self.walk_from(child, event, level + 1, walk);
                }
                return;
            }
        };
        // The lookup table of Example 5: a value's natural slot, which
        // costs no operation.
        let g = edges.partition_point(|(e, _)| e.hi() <= idx);
        let hit = edges.get(g).is_some_and(|(e, _)| e.contains(idx));
        let budget = if hit {
            ordering.hit_cost[g]
        } else {
            ordering.miss_cost[g]
        };
        if matches!(self.config.search, SearchStrategy::Linear(_)) {
            // The scan itself, in visit order.
            let tested = &ordering.visit[..budget as usize];
            let found = tested
                .iter()
                .position(|&e| edges[e as usize].0.contains(idx));
            assert_eq!(
                found.map(|k| k + 1),
                hit.then_some(tested.len()),
                "scan vs table"
            );
        }
        charge(walk, u64::from(budget));
        if hit {
            self.walk_from(&edges[g].1, event, level + 1, walk);
        } else if let Some((false, child)) = star {
            charge(walk, 1);
            self.walk_from(child, event, level + 1, walk);
        }
    }

    /// The tree's inner nodes.
    pub fn inner_nodes(&self) -> usize {
        fn count(node: &Node) -> usize {
            match node {
                Node::Inner { edges, star, .. } => {
                    let below = edges.iter().map(|(_, child)| count(child)).sum::<usize>();
                    1 + below + star.as_ref().map_or(0, |(_, child)| count(child))
                }
                Node::Leaf(_) | Node::Empty => 0,
            }
        }
        count(&self.root)
    }
}
