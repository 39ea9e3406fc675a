//! Filter images an earlier format wrote, inside broker checkpoints,
//! load as this build's compile of the same profiles: the same
//! automaton, and per event the same matches and ops.
//!
//! `fixtures/parent_dir` holds two checkpoint generations whose shard
//! filters are version 3 snapshots (they also stored the automaton and
//! wrote each leaf's list in place); `wal_trim.rs` opens, trims and
//! reopens the directory.

use std::path::Path;

use ens_filter::{FilterSnapshot, MatchScratch, Matcher};
use ens_service::persist::Checkpoint;
use ens_types::{CoverSet, IndexedEvent, ProfileSet};

#[test]
fn parent_dir_shard_filters_load_as_a_fresh_compile() {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/parent_dir");
    let (mut old_out, mut fresh_out) = (MatchScratch::new(), MatchScratch::new());
    let mut shards = 0;
    for name in ["checkpoint.2.ens", "checkpoint.3.ens"] {
        let checkpoint = Checkpoint::from_bytes(&std::fs::read(dir.join(name)).unwrap()).unwrap();
        for shard in &checkpoint.shards {
            assert_eq!(
                u32::from_le_bytes(shard.filter[4..8].try_into().unwrap()),
                3
            );
            let old = FilterSnapshot::from_bytes(&shard.filter).unwrap();
            let mut base = ProfileSet::new(&checkpoint.schema);
            for entry in &shard.base {
                base.insert(entry.profile.clone());
            }
            let fresh = match old.cover_plan() {
                None => FilterSnapshot::compile(&base, &shard.tree),
                Some(_) => {
                    let keyed = base.iter().map(|p| (p.id().index() as u32, p));
                    let cover = CoverSet::build_bulk(&checkpoint.schema, keyed).unwrap();
                    FilterSnapshot::compile_with_cover(&base, &cover, &shard.tree)
                }
            }
            .unwrap();
            let (a, b) = (old.dfsa(), fresh.dfsa());
            assert_eq!(
                (a.state_count(), a.leaf_count(), a.jump_state_count()),
                (b.state_count(), b.leaf_count(), b.jump_state_count()),
                "{name}"
            );
            assert_eq!(a.edge_count(), b.edge_count(), "{name}");
            for x in (0..=100).map(Some).chain([None]) {
                let e = IndexedEvent::from_indices(vec![x]);
                a.match_into(&e, &mut old_out);
                b.match_into(&e, &mut fresh_out);
                assert_eq!(
                    old_out.profiles(),
                    fresh_out.profiles(),
                    "{name}, x = {x:?}"
                );
                assert_eq!(old_out.ops(), fresh_out.ops(), "{name}, x = {x:?}");
            }
            shards += 1;
        }
    }
    assert!(shards >= 2);
}
