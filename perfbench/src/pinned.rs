//! Simulated outputs pinned from the code the benchmark was defined on.
//!
//! The five Garnet ops that abort there (`UnexpectedStep`, reported as
//! "collective planning failed") have no pin: once they complete, every
//! NPU reporting done and a clean quiescence audit is their check.

use crate::Output;

/// (label, [duration cycles, messages delivered, Σ link traversals,
/// payload bytes]).
const COLLECTIVES: &[(&str, [u64; 4])] = &[
    (
        "analytical 1x64x1 all-reduce 65536",
        [28005, 129024, 129024, 8257536],
    ),
    (
        "analytical 1x64x1 all-reduce 262144",
        [29295, 129024, 129024, 33030144],
    ),
    (
        "analytical 1x64x1 all-reduce 1048576",
        [33294, 129024, 129024, 132120576],
    ),
    (
        "analytical 1x64x1 all-reduce 4194304",
        [93450, 129024, 129024, 528482304],
    ),
    (
        "analytical 1x64x1 all-reduce 16777216",
        [356538, 129024, 129024, 2113929216],
    ),
    (
        "analytical 1x64x1 all-reduce 67108864",
        [1409394, 129024, 129024, 8455716864],
    ),
    (
        "analytical 1x8x8 all-reduce 65536",
        [6869, 28672, 28672, 14680064],
    ),
    (
        "analytical 1x8x8 all-reduce 262144",
        [10557, 28672, 28672, 58720256],
    ),
    (
        "analytical 1x8x8 all-reduce 1048576",
        [39551, 28672, 28672, 234881024],
    ),
    (
        "analytical 1x8x8 all-reduce 4194304",
        [153347, 28672, 28672, 939524096],
    ),
    (
        "analytical 1x8x8 all-reduce 16777216",
        [608749, 28672, 28672, 3758096384],
    ),
    (
        "analytical 1x8x8 all-reduce 67108864",
        [2432537, 28672, 28672, 15032385536],
    ),
    (
        "analytical 2x8x4 all-reduce 65536",
        [5957, 22528, 22528, 17825792],
    ),
    (
        "analytical 2x8x4 all-reduce 262144",
        [11792, 22528, 22528, 71303168],
    ),
    (
        "analytical 2x8x4 all-reduce 1048576",
        [39629, 22528, 22528, 285212672],
    ),
    (
        "analytical 2x8x4 all-reduce 4194304",
        [151025, 22528, 22528, 1140850688],
    ),
    (
        "analytical 2x8x4 all-reduce 16777216",
        [596145, 22528, 22528, 4563402752],
    ),
    (
        "analytical 2x8x4 all-reduce 67108864",
        [2376654, 22528, 22528, 18253611008],
    ),
    (
        "analytical 4x4x4 all-reduce 65536",
        [4890, 18432, 18432, 18874368],
    ),
    (
        "analytical 4x4x4 all-reduce 262144",
        [12840, 18432, 18432, 75497472],
    ),
    (
        "analytical 4x4x4 all-reduce 1048576",
        [46120, 18432, 18432, 301989888],
    ),
    (
        "analytical 4x4x4 all-reduce 4194304",
        [179912, 18432, 18432, 1207959552],
    ),
    (
        "analytical 4x4x4 all-reduce 16777216",
        [715720, 18432, 18432, 4831838208],
    ),
    (
        "analytical 4x4x4 all-reduce 67108864",
        [2858952, 18432, 18432, 19327352832],
    ),
    (
        "garnet 1x64x1 all-reduce 65536",
        [30384, 129024, 258048, 8257536],
    ),
    (
        "garnet 1x64x1 all-reduce 262144",
        [33408, 129024, 387072, 33030144],
    ),
    (
        "garnet 1x8x8 all-reduce 65536",
        [8968, 28672, 172032, 14680064],
    ),
];

/// (label, [total_time, total_exposed]) in cycles.
const TRAINING: &[(&str, [u64; 2])] = &[("analytical 2x8x4 resnet50 x2", [5957408, 973478])];

/// The pinned output of the op labelled `label`, if it has one.
pub fn output(label: &str) -> Option<Output> {
    if let Some((_, [duration, delivered, traversals, payload_bytes])) =
        COLLECTIVES.iter().find(|(l, _)| *l == label)
    {
        return Some(Output::Collective {
            duration: *duration,
            delivered: *delivered,
            traversals: *traversals,
            payload_bytes: *payload_bytes,
        });
    }
    TRAINING
        .iter()
        .find(|(l, _)| *l == label)
        .map(|(_, [total_time, total_exposed])| Output::Training {
            total_time: *total_time,
            total_exposed: *total_exposed,
        })
}
