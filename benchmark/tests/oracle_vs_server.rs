//! The sequential oracle against a real server replay: 10k mixed ops,
//! both shard-table modes, every response word and the final contents.

use phc_benchmark::gen::mixed_log;
use phc_benchmark::oracle::{diff_sorted, Oracle};
use phc_benchmark::run::new_server;
use phc_benchmark::workloads::Mode;

#[test]
fn oracle_agrees_with_a_10k_op_server_replay() {
    // 256 keys under heavy skew: puts, deletes and gets keep landing on
    // the same keys within and across batches.
    let log = mixed_log(10_000, 256, 0.99, 40, 30, 7);
    for mode in [Mode::Rooms, Mode::Fc] {
        for batch in [1, 64, 1000] {
            let server = new_server(mode, 4, 6);
            let mut oracle = Oracle::new(256);
            let mut expected = Vec::new();
            for ops in log.chunks(batch) {
                oracle.apply_batch(ops, &mut expected);
                assert_eq!(server.apply_batch(ops), expected, "{mode:?}, batch {batch}");
            }
            assert_eq!(diff_sorted(&server.sorted_elements(), &oracle.entries()), 0);
            assert!(
                !oracle.entries().is_empty(),
                "the log must leave something stored"
            );
        }
    }
}
