//! Pinned WSP pull serving at scale: 64 node-partitioned virtual
//! workers over mixed GPU kinds, at `D = 0` and at `D = 2`.
//!
//! A VW's pull for wave `c − D` is served once the slowest VW has
//! pushed that wave. With 64 VWs every push can unblock many pending
//! pulls at once, and the order they are served in decides which NIC
//! transfer queues behind which — so the trace fingerprint, the event
//! count and every VW's pull-wait total pin the serving order, not
//! just the throughput. The pins were recorded from the executor that
//! rescanned every VW's clock on every push.

use hetpipe::cluster::{Cluster, GpuKind, Node};
use hetpipe::core::exec::{self, trace_fingerprint, ExecParams, RunStats};
use hetpipe::core::{
    AllocationPolicy, HetPipeSystem, Placement, RecomputePolicy, Schedule, SystemConfig, WspParams,
};
use hetpipe::des::SimTime;
use hetpipe::model::resnet50;

const VWS: usize = 64;

/// Short enough for a debug build, long enough for several waves and,
/// at `D = 2`, stale pulls.
const HORIZON_SECS: f64 = 8.0;

fn run(staleness: usize) -> RunStats {
    let kinds = [
        GpuKind::TitanV,
        GpuKind::TitanRtx,
        GpuKind::Rtx2060,
        GpuKind::QuadroP4000,
    ];
    let mut cluster = Cluster::new();
    for i in 0..VWS {
        cluster.add_node(Node::new(kinds[i % kinds.len()], 4));
    }
    let graph = resnet50(32);
    let config = SystemConfig {
        policy: AllocationPolicy::NodePartition,
        placement: Placement::Default,
        staleness_bound: staleness,
        schedule: Schedule::HetPipeWave,
        recompute: RecomputePolicy::None,
        ..SystemConfig::default()
    };
    let sys = HetPipeSystem::build(&cluster, &graph, &config).expect("builds");
    assert_eq!(sys.virtual_workers().len(), VWS);
    exec::run(
        ExecParams {
            cluster: &cluster,
            graph: &graph,
            vws: sys.virtual_workers(),
            wsp: WspParams::new(sys.nm(), staleness),
            shards: sys.shards(),
            sync_transfers: true,
            schedule: config.schedule,
            recompute: config.recompute,
        },
        SimTime::from_secs(HORIZON_SECS),
    )
}

/// Nanoseconds of pull waiting per VW, at `D = 0`.
const PULL_WAIT_D0: [u64; VWS] = [
    3906273650, 3617986309, 3202192228, 2695165371, 3720229896, 3453634495, 2678491596, 2110980386,
    3307089722, 3054054014, 2341258187, 1557885614, 2794431009, 2561411410, 1826410600, 1206725707,
    2367378294, 2127186242, 1490699211, 926895510, 2122563702, 1850819212, 1231626135, 711454932,
    1941406483, 1676625772, 1136431461, 586198782, 1767213043, 1581431098, 1011175311, 460942632,
    1672018369, 1516297900, 915980637, 365747958, 1606885171, 1317347776, 790724487, 300614760,
    1407935047, 1222153102, 665468337, 235481562, 1312740373, 1096896952, 540212187, 170348364,
    1187484223, 1001702278, 445017513, 105215166, 1092289549, 876446128, 379884315, 70143444,
    967033399, 751189978, 314751117, 35071722, 841777249, 625933828, 249617919, 0,
];

/// Nanoseconds of pull waiting per VW, at `D = 2`.
const PULL_WAIT_D2: [u64; VWS] = [
    482800929, 0, 0, 0, 493089539, 0, 0, 0, 503656285, 0, 0, 0, 504163898, 0, 0, 17292575,
    543851004, 472612115, 0, 35071722, 547172606, 447967837, 0, 65575558, 547172606, 450695013, 0,
    97532439, 547172606, 445684767, 0, 431721943, 537152114, 418371700, 0, 432030566, 477392269,
    413361454, 0, 485041516, 472382023, 408351208, 0, 463105127, 517814259, 393320470, 0,
    463105127, 458265611, 378119721, 22302821, 468134091, 458265611, 422358931, 22302821,
    491889957, 430952544, 422358931, 44497788, 509601325, 395880822, 418408291, 27205213,
    1497911660,
];

fn assert_pinned(stats: &RunStats, fingerprint: u64, events: u64, pull_wait: &[u64; VWS]) {
    let waits: Vec<u64> = stats.vws.iter().map(|v| v.pull_wait.as_nanos()).collect();
    assert_eq!(waits, pull_wait, "per-VW pull_wait (ns)");
    assert_eq!(stats.events, events, "events processed");
    assert_eq!(
        trace_fingerprint(stats.trace.spans()),
        fingerprint,
        "trace fingerprint"
    );
}

#[test]
fn pull_serving_d0_at_64_vws() {
    assert_pinned(&run(0), 0x0c2e_1df8_a97c_e450, 45201, &PULL_WAIT_D0);
}

#[test]
fn pull_serving_d2_at_64_vws() {
    let stats = run(2);
    // A D > 0 run that actually waits: stale pulls are served late.
    assert!(stats.vws.iter().any(|v| v.pull_wait > SimTime::ZERO));
    assert_pinned(&stats, 0xcaaa_d272_5dd2_58a3, 52243, &PULL_WAIT_D2);
}
