//! The ladder's self times telescope back to the top rung.

use utpr_benchmark::workloads::embed::Rungs;

#[test]
fn self_times_telescope_to_the_top_rung() {
    for rungs in [
        Rungs {
            pagestore: 19.3,
            space: 24.1,
            env: 26.4,
            rb: 716.2,
            kv: 705.2,
            ptr_ops_per_kv_op: 21.8,
        },
        Rungs {
            pagestore: 18.6,
            space: 30.1,
            env: 31.2,
            rb: 1008.2,
            kv: 940.2,
            ptr_ops_per_kv_op: 28.0,
        },
        Rungs {
            pagestore: 1.0,
            space: 1.0,
            env: 1.0,
            rb: 1.0,
            kv: 1.0,
            ptr_ops_per_kv_op: 0.0,
        },
    ] {
        let selfs = rungs.self_times();
        let rebuilt = selfs.telescope(rungs.pagestore, rungs.ptr_ops_per_kv_op);
        assert!(
            (rebuilt - rungs.kv).abs() < 1e-9,
            "{rebuilt} vs {}",
            rungs.kv
        );
        // Each subtraction is against the rung directly below.
        assert_eq!(selfs.space, rungs.space - rungs.pagestore);
        assert_eq!(selfs.env, rungs.env - rungs.space);
        assert_eq!(selfs.kv, rungs.kv - rungs.rb);
        assert_eq!(selfs.rb, rungs.rb - rungs.ptr_ops_per_kv_op * rungs.env);
    }
}
