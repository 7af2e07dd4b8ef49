//! Property-based tests of the shuffle itself: for arbitrary record sets
//! and engine configurations, grouping must be exact — every value lands
//! in exactly one group, groups arrive in sort order, and no
//! configuration (task counts, buffer sizes, disk spilling, combining)
//! changes the logical outcome.

use mapreduce::*;
use proptest::prelude::*;
use std::collections::BTreeMap;

struct IdentityMapper;

impl Mapper for IdentityMapper {
    type InKey = u32;
    type InValue = u64;
    type OutKey = u32;
    type OutValue = u64;
    fn map(&mut self, k: &u32, v: &u64, ctx: &mut MapContext<'_, u32, u64>) {
        ctx.emit(k, v);
    }
}

/// Collects each group's values (sorted for comparability).
struct CollectReducer;

impl Reducer for CollectReducer {
    type Key = u32;
    type ValueIn = u64;
    type KeyOut = u32;
    type ValueOut = Vec<u64>;
    fn reduce(
        &mut self,
        key: u32,
        values: &mut ValueIter<'_, u64>,
        ctx: &mut ReduceContext<'_, u32, Vec<u64>>,
    ) {
        let mut vs: Vec<u64> = values.collect();
        vs.sort_unstable();
        ctx.emit(key, vs);
    }
}

fn expected_groups(records: &[(u32, u64)]) -> BTreeMap<u32, Vec<u64>> {
    let mut m: BTreeMap<u32, Vec<u64>> = BTreeMap::new();
    for &(k, v) in records {
        m.entry(k).or_default().push(v);
    }
    for vs in m.values_mut() {
        vs.sort_unstable();
    }
    m
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn grouping_is_exact_under_any_configuration(
        records in prop::collection::vec((0u32..40, 0u64..1000), 0..300),
        maps in 1usize..9,
        reduces in 1usize..5,
        slots in 1usize..5,
        buffer in prop_oneof![Just(64usize), Just(1024), Just(usize::MAX)],
        spill in any::<bool>(),
        combine in any::<bool>(),
    ) {
        let expected = expected_groups(&records);
        let mut config = JobConfig::named("prop");
        config.num_map_tasks = maps;
        config.num_reduce_tasks = reduces;
        config.slots = slots;
        config.sort_buffer_bytes = buffer;
        config.spill_to_disk = spill && buffer != usize::MAX;
        let mut job = Job::<IdentityMapper, CollectReducer>::new(
            config, || IdentityMapper, || CollectReducer);
        if combine {
            // A pass-through combiner must never alter results.
            struct PassThrough;
            impl Reducer for PassThrough {
                type Key = u32;
                type ValueIn = u64;
                type KeyOut = u32;
                type ValueOut = u64;
                fn reduce(&mut self, key: u32, values: &mut ValueIter<'_, u64>,
                          ctx: &mut ReduceContext<'_, u32, u64>) {
                    for v in values {
                        ctx.emit(key, v);
                    }
                }
            }
            job = job.combiner(|| Box::new(PassThrough));
        }
        let cluster = Cluster::new(slots);
        let result = job.run(&cluster, records).unwrap();

        // Within each partition groups arrive in ascending key order.
        for part in &result.outputs {
            for w in part.windows(2) {
                prop_assert!(w[0].0 < w[1].0, "keys out of order within a partition");
            }
        }
        let got: BTreeMap<u32, Vec<u64>> = result.into_records().into_iter().collect();
        prop_assert_eq!(got, expected);
    }
}

/// Orders and groups `(u32, u32)` keys by their first element only:
/// equality coarser than byte equality, and no digest.
struct FirstElementOnly;

impl RawComparator for FirstElementOnly {
    fn compare(&self, a: &[u8], b: &[u8]) -> std::cmp::Ordering {
        let first = |k: &[u8]| ByteReader::new(k).read_vu32().unwrap();
        first(a).cmp(&first(b))
    }
}

struct PairMapper;

impl Mapper for PairMapper {
    type InKey = (u32, u32);
    type InValue = u64;
    type OutKey = (u32, u32);
    type OutValue = u64;
    fn map(&mut self, k: &(u32, u32), v: &u64, ctx: &mut MapContext<'_, (u32, u32), u64>) {
        ctx.emit(k, v);
    }
}

/// One output record per group, keyed by the group's first element.
struct GroupSum;

impl Reducer for GroupSum {
    type Key = (u32, u32);
    type ValueIn = u64;
    type KeyOut = u32;
    type ValueOut = u64;
    fn reduce(
        &mut self,
        key: (u32, u32),
        values: &mut ValueIter<'_, u64>,
        ctx: &mut ReduceContext<'_, u32, u64>,
    ) {
        ctx.emit(key.0, values.sum());
    }
}

/// The same as a combiner: one record per combine group, under the key the
/// group arrived with.
struct GroupSumCombiner;

impl Reducer for GroupSumCombiner {
    type Key = (u32, u32);
    type ValueIn = u64;
    type KeyOut = (u32, u32);
    type ValueOut = u64;
    fn reduce(
        &mut self,
        key: (u32, u32),
        values: &mut ValueIter<'_, u64>,
        ctx: &mut ReduceContext<'_, (u32, u32), u64>,
    ) {
        ctx.emit(key, values.sum());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The byte-equality fast path in reduce, combine and the merge tree
    /// may only ever answer "equal": keys that differ in bytes but are
    /// equal under the comparator must still land in one group.
    #[test]
    fn groups_follow_the_comparator_not_the_bytes(
        records in prop::collection::vec(((0u32..12, 0u32..400), 1u64..100), 1..300),
        maps in 1usize..4,
        buffer in prop_oneof![Just(512usize), Just(usize::MAX)],
        combine in any::<bool>(),
        prefix_sort in any::<bool>(),
    ) {
        let mut expected: BTreeMap<u32, u64> = BTreeMap::new();
        for &((first, _), v) in &records {
            *expected.entry(first).or_default() += v;
        }
        let mut config = JobConfig::named("coarse-equality");
        config.num_map_tasks = maps;
        config.num_reduce_tasks = 2;
        config.sort_buffer_bytes = buffer;
        config.prefix_sort = prefix_sort;
        let mut job = Job::<PairMapper, GroupSum>::new(config, || PairMapper, || GroupSum)
            .partitioner(FnPartitioner::new(|k: &(u32, u32), n| k.0 as usize % n))
            .sort_comparator(FirstElementOnly);
        if combine {
            job = job.combiner(|| Box::new(GroupSumCombiner));
        }
        let result = job.run(&Cluster::new(2), records).unwrap();
        if combine && maps == 1 && buffer == usize::MAX {
            // One spill per partition: combine saw each group exactly once.
            prop_assert_eq!(
                result.counters.get(Counter::CombineOutputRecords),
                expected.len() as u64
            );
        }
        // One reduce call — one output record — per first element.
        let got: Vec<(u32, u64)> = result.into_records();
        prop_assert_eq!(got.len(), expected.len(), "a group was split");
        prop_assert_eq!(got.into_iter().collect::<BTreeMap<_, _>>(), expected);
    }
}
