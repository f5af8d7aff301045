//! Determinism tests for the serving subsystem.
//!
//! The serving FOMs gate tier-1, so they must be exactly reproducible:
//! identical seed ⇒ bit-identical arrival trace, per-request latencies
//! and energy totals — across repeated runs, across 1/2/4-thread rayon
//! pools, and between the serial and parallel [`SweepRunner`]. Every
//! comparison here projects `f64`s onto their raw bit patterns, so a
//! pass means *bit* identity, not approximate agreement.

use caraml::engine::RunOutcome;
use caraml::serve::{arrival_trace, load_grid, ArrivalKind, RequestOutcome, ServeBenchmark};
use caraml::{ServeFom, SweepRunner};
use caraml_accel::SystemId;

fn bench() -> ServeBenchmark {
    ServeBenchmark::new(SystemId::H100Jrdc)
}

fn grid() -> Vec<caraml::ServePoint> {
    load_grid(&[4.0, 32.0, 128.0], &[2, 16])
}

/// Project a ServeFom onto exact bit patterns.
fn fom_bits(f: &ServeFom) -> Vec<u64> {
    vec![
        f.rate_per_s.to_bits(),
        u64::from(f.batch_cap),
        f.requests,
        f.served,
        f.shed,
        f.ttft.p50.to_bits(),
        f.ttft.p95.to_bits(),
        f.ttft.p99.to_bits(),
        f.tpot.p50.to_bits(),
        f.tpot.p95.to_bits(),
        f.tpot.p99.to_bits(),
        f.tokens_per_s.to_bits(),
        f.goodput_tokens_per_s.to_bits(),
        f.slo_attainment.to_bits(),
        f.energy_wh_per_ktoken.to_bits(),
        f.mean_power_w.to_bits(),
        f.peak_power_w.to_bits(),
        f.busy_fraction.to_bits(),
    ]
}

/// Project a sweep outcome (completed cells by FOM bits, OOM/failed
/// cells by message) so equality means bit-identity.
fn sweep_bits(outcomes: &[RunOutcome<ServeFom>]) -> Vec<(Vec<u64>, String)> {
    outcomes
        .iter()
        .map(|o| match o {
            RunOutcome::Completed(f) => (fom_bits(f), String::new()),
            RunOutcome::Oom {
                device, requested, ..
            } => (Vec::new(), format!("oom:{device}:{requested}")),
            RunOutcome::Failed(e) => (Vec::new(), format!("failed:{e}")),
        })
        .collect()
}

/// Run the full load sweep inside a rayon pool of `threads` workers.
fn sweep_in_pool(threads: usize) -> Vec<(Vec<u64>, String)> {
    let pool = rayon::ThreadPoolBuilder::new()
        .num_threads(threads)
        .build()
        .unwrap();
    pool.install(|| sweep_bits(&bench().sweep(SweepRunner::parallel(), grid())))
}

#[test]
fn arrival_trace_is_bit_identical_across_runs() {
    for arrival in [
        ArrivalKind::Poisson,
        ArrivalKind::Bursty {
            burst_factor: 8.0,
            mean_burst: 6.0,
        },
    ] {
        let mut b = bench();
        b.config.arrival = arrival;
        let bits = |cfg: &caraml::serve::ServeConfig| -> Vec<(u64, u64, u64, u8)> {
            arrival_trace(cfg, 24.0)
                .iter()
                .map(|r| {
                    (
                        r.arrival_s.to_bits(),
                        r.prompt_tokens,
                        r.gen_tokens,
                        matches!(r.class, caraml::SloClass::Interactive) as u8,
                    )
                })
                .collect()
        };
        assert_eq!(bits(&b.config), bits(&b.config), "{arrival:?}");
    }
}

#[test]
fn per_request_latencies_are_bit_identical_across_runs() {
    let b = bench();
    let p = caraml::ServePoint {
        rate_per_s: 64.0,
        batch_cap: 8,
    };
    let run = || -> Vec<(u32, u64, u64, u64)> {
        b.simulate(p)
            .unwrap()
            .records
            .iter()
            .map(|r| match r.outcome {
                RequestOutcome::Served {
                    first_token_s,
                    finish_s,
                    ..
                } => (
                    r.id,
                    r.arrival_s.to_bits(),
                    first_token_s.to_bits(),
                    finish_s.to_bits(),
                ),
                RequestOutcome::Shed { at_s, .. } => {
                    (r.id, r.arrival_s.to_bits(), at_s.to_bits(), 0)
                }
            })
            .collect()
    };
    assert_eq!(run(), run());
}

#[test]
fn repeated_runs_reproduce_energy_and_latency_bits() {
    let b = bench();
    let p = caraml::ServePoint {
        rate_per_s: 32.0,
        batch_cap: 16,
    };
    let a = fom_bits(&b.run(p).unwrap());
    let c = fom_bits(&b.run(p).unwrap());
    assert_eq!(a, c, "fresh contexts must reproduce every FOM bit");
}

#[test]
fn serial_and_parallel_sweeps_are_bit_identical() {
    let b = bench();
    let serial = sweep_bits(&b.sweep(SweepRunner::serial(), grid()));
    let parallel = sweep_bits(&b.sweep(SweepRunner::parallel(), grid()));
    assert_eq!(serial, parallel);
    // The grid deliberately includes an overloaded cell so the identity
    // also covers shedding paths, and completed cells must dominate.
    assert!(serial
        .iter()
        .all(|(bits, err)| !bits.is_empty() && err.is_empty()));
}

#[test]
fn sweep_is_bit_identical_across_1_2_4_thread_pools() {
    let one = sweep_in_pool(1);
    let two = sweep_in_pool(2);
    let four = sweep_in_pool(4);
    assert_eq!(one, two, "1-thread vs 2-thread pools");
    assert_eq!(two, four, "2-thread vs 4-thread pools");
}

#[test]
fn different_seeds_actually_change_the_results() {
    // Guards against the determinism tests passing vacuously (e.g. the
    // seed being ignored): a different seed must move the FOM bits.
    let p = caraml::ServePoint {
        rate_per_s: 64.0,
        batch_cap: 8,
    };
    let a = fom_bits(&bench().run(p).unwrap());
    let mut b2 = bench();
    b2.config.seed = 1234;
    let c = fom_bits(&b2.run(p).unwrap());
    assert_ne!(a, c, "seed must influence the serving FOMs");
}

/// FNV-1a 64-bit running hash over `u64` words (little-endian bytes).
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    fn str(&mut self, s: &str) {
        self.word(s.len() as u64);
        for b in s.bytes() {
            self.word(u64::from(b));
        }
    }
}

/// Hash every output of one simulation: the per-request records, the
/// phase schedule, and the scalar summaries, all by exact bit pattern.
fn report_hash(report: &caraml::serve::SimReport) -> u64 {
    let mut h = Fnv::new();
    for r in &report.records {
        h.word(u64::from(r.id));
        h.word(matches!(r.class, caraml::SloClass::Interactive) as u64);
        h.word(r.arrival_s.to_bits());
        h.word(r.gen_tokens);
        match r.outcome {
            RequestOutcome::Served {
                admit_seq,
                admit_s,
                first_token_s,
                finish_s,
                tokens,
            } => {
                for w in [
                    0,
                    u64::from(admit_seq),
                    admit_s.to_bits(),
                    first_token_s.to_bits(),
                    finish_s.to_bits(),
                    tokens,
                ] {
                    h.word(w);
                }
            }
            RequestOutcome::Shed { at_s, reason } => {
                h.word(1);
                h.word(at_s.to_bits());
                h.str(&format!("{reason:?}"));
            }
        }
    }
    for p in &report.phases {
        h.str(&format!("{:?}", p.kind));
        h.str(p.label);
        h.word(p.active as u64);
        h.word(p.duration_s.to_bits());
        h.word(p.utilization.to_bits());
        h.word(p.sustained_w.to_bits());
    }
    h.word(report.makespan_s.to_bits());
    h.word(report.decode_steps);
    h.word(u64::from(report.max_occupancy));
    h.word(report.max_kv_reserved_bytes);
    h.0
}

/// The golden probe grid: 4 GPU systems × 3 precisions × Poisson/bursty
/// arrivals × 3 seeds × 5 load points × 2 KV fractions, then the
/// 10⁵-request bursty single-replica configuration of the repository
/// benchmark at seeds 1 and 42. Each cell is a label plus its bench and
/// load point.
fn golden_cells() -> Vec<(String, ServeBenchmark, caraml::ServePoint)> {
    use caraml_accel::Precision;
    let systems = [
        ("A100", SystemId::A100),
        ("H100", SystemId::H100Jrdc),
        ("GH200", SystemId::Gh200Jrdc),
        ("MI250", SystemId::Mi250),
    ];
    let points = [(4.0, 16), (16.0, 8), (60.0, 8), (200.0, 32), (400.0, 4)];
    let mut cells = Vec::new();
    for (tag, system) in systems {
        for precision in [Precision::F32, Precision::Bf16, Precision::Int8] {
            for bursty in [false, true] {
                for seed in [1, 7, 42] {
                    for (rate, cap) in points {
                        for kv_mem_frac in [0.9, 0.02] {
                            let mut b = ServeBenchmark::new(system).with_precision(precision);
                            b.config.seed = seed;
                            b.config.kv_mem_frac = kv_mem_frac;
                            if bursty {
                                b.config.arrival = ArrivalKind::Bursty {
                                    burst_factor: 8.0,
                                    mean_burst: 6.0,
                                };
                            }
                            let label = format!(
                                "{tag} {precision:?} {} seed={seed} rate={rate} cap={cap} kv={kv_mem_frac}",
                                if bursty { "bursty" } else { "poisson" }
                            );
                            let point = caraml::ServePoint {
                                rate_per_s: rate,
                                batch_cap: cap,
                            };
                            cells.push((label, b, point));
                        }
                    }
                }
            }
        }
    }
    for seed in [1, 42] {
        let mut b = ServeBenchmark::new(SystemId::H100Jrdc);
        b.config.seed = seed;
        b.config.num_requests = 100_000;
        b.config.gen_tokens = (8, 32);
        b.config.arrival = ArrivalKind::Bursty {
            burst_factor: 8.0,
            mean_burst: 6.0,
        };
        b.config.kv_mem_frac = 0.05;
        let point = caraml::ServePoint {
            rate_per_s: 150.0,
            batch_cap: 16,
        };
        cells.push((format!("perfbench seed={seed}"), b, point));
    }
    cells
}

/// Pinned [`report_hash`] of every [`golden_cells`] cell, in grid order,
/// as hex words. On a mismatch the test prints the regenerated table.
const GOLDEN: &str = "
3b280c6bb18e9dc9 3b280c6bb18e9dc9 61c0c2e06fd14d17 11f5f0eed9c63f49
5013ff085e0dc772 d6865dc0d72a3877 e25f9f9b471a472a 9bc7b7447d49ed59
a1f204ab3d1debff a1f204ab3d1debff e8ec44ffe65554ed e8ec44ffe65554ed
d2da9e982daa3c5d 94efbccb4a6b8df5 ee8684ef16b0c22f 6a661965b37e7215
b199ab9175859ab1 4f31e187f3a0fc36 9bdd3516e1711c29 9bdd3516e1711c29
4134fa3462724934 4134fa3462724934 0aa01178ef3d9143 c9fc559a8ff09f09
bf48ed5b07fa92dd 6be9c91970db5486 fa0d2bc624baedea 5f6701efea2b4a41
19fbd3cb58043cae 19fbd3cb58043cae 66068391b63e6adf 6676b717e4d88329
a5835353e76a236e 5b353099e85c4a70 e33268a4a36e3a80 adc1ccafbc3c56b8
b0cfe696860bff4f a82ac9dd13eb1c87 e06f0c1d62d48f32 e06f0c1d62d48f32
aae96978224a5b05 5346ca230c27dbe8 0b876d378240f82b a7e734cb3d28cde0
565c29dcb693b9f7 d80e2528e9369ef9 9d220c7f982e1a11 179951d31dd9eae1
54f01b5ede5cbce1 54f01b5ede5cbce1 1220e5259a188217 a93b2121a07c4b8e
11c389f40499b4e6 cbd1caa81889f192 7a879beb43d7e9a0 7642fdcfb978b571
6108574414badd6c bb7467cb1aeb8ea6 696df40d1c79fbfb 696df40d1c79fbfb
77288b71736de427 77288b71736de427 dba411a11c8120c3 dba411a11c8120c3
66a09c9545626671 66a09c9545626671 2167400742dd6e06 918688ef5a32e017
4ad93cca0eb61d45 4ad93cca0eb61d45 b788dbdffb0c4d56 b788dbdffb0c4d56
9cdc9a78daf70e37 9cdc9a78daf70e37 a573839df39814d4 a573839df39814d4
a28051186e7f5e50 de4a8f184cca79dd c0d8e37548966a3f c0d8e37548966a3f
7bd927c8151d8a07 7bd927c8151d8a07 535e712ce369ba75 535e712ce369ba75
96cf7594ac3547e6 96cf7594ac3547e6 eeed52e0496f5d29 212852d3c8824038
fb0c693498516b41 fb0c693498516b41 4bf8e74012438d13 4bf8e74012438d13
1ba7eb4fe964ce08 1ba7eb4fe964ce08 45db9ca31c210cdd 45db9ca31c210cdd
c520ff3a73846592 a076bfa1b0d49f33 75f7f5f2f1d00667 75f7f5f2f1d00667
375f98c0a6c529f1 375f98c0a6c529f1 ae79e4da7c2aa348 ae79e4da7c2aa348
da0b0639ab0c4676 da0b0639ab0c4676 3c006dae9021f3c6 7c8ae37afab64cc6
292f6c2f97901be6 292f6c2f97901be6 bf8b646ba084002d bf8b646ba084002d
f7afbe0d00738a5b f7afbe0d00738a5b efcac862335c6e5c efcac862335c6e5c
6c444843cc893360 a49d67ee5a64e225 de04b2aed3bf140f de04b2aed3bf140f
a61a82855118a61e a61a82855118a61e e69c718576ee3a91 e69c718576ee3a91
e9c0f819b8d963e6 e9c0f819b8d963e6 4b8befd011f655b4 af4788a68248ec26
3fcdc333dc7a43ff 3fcdc333dc7a43ff 30350a88747c324c 30350a88747c324c
2cbc16df01ebafab 2cbc16df01ebafab 5bbcddc041128a9a 5bbcddc041128a9a
ffe104ffca628866 7e274893d93ecdc0 f37c8c39663fde63 f37c8c39663fde63
8a3e392f7f28f439 8a3e392f7f28f439 d522327d7e67f825 d522327d7e67f825
d1d2dfa9b53552f1 d1d2dfa9b53552f1 cd29ce64d871c7ad 37be2bf896bfe286
a1474e0f1a8fee38 a1474e0f1a8fee38 0eca87341239468f 0eca87341239468f
319f19497b1797ce 319f19497b1797ce 785731e6af52ef73 785731e6af52ef73
446c2c12a99eef13 a2521b65fa9308a4 ef921e4d3805b97a ef921e4d3805b97a
9ae8f3e6043b2d68 9ae8f3e6043b2d68 fbcf9cd4b4030a1e fbcf9cd4b4030a1e
88a3685a2362f291 88a3685a2362f291 8b9590f7fd3d5bc6 2a4cc44fe6eaaa68
608ca80450183206 608ca80450183206 64401f4fd18e2552 64401f4fd18e2552
e958ffe49fb06e19 e958ffe49fb06e19 8ba7dfdebe50bfb5 8ba7dfdebe50bfb5
e8459d4086b2b798 d93e6d7b31dc7e08 e61eadd6bd9b73f6 e61eadd6bd9b73f6
09b8593ef3d1527a 09b8593ef3d1527a d2a11eee6c00d274 d2a11eee6c00d274
09ba1e4a96fd4e21 09ba1e4a96fd4e21 26c774eeeffbd6a7 b007320c09ff0df8
81c7f3452397734a 81c7f3452397734a 18a4ffd7a876b54e 18a4ffd7a876b54e
3dc8c494711ea86e 3dc8c494711ea86e 4671bbe2941a2077 4671bbe2941a2077
818221b51530af55 d62096b88c68a334 22583600c80b1f0d 22583600c80b1f0d
c7483bd59be149c5 c7483bd59be149c5 58f618398f258ed4 58f618398f258ed4
910ea137a9f6a5e2 910ea137a9f6a5e2 3b1d2be9c0399f9e f5ac9b484b41e577
9434d8b21ca275f1 9434d8b21ca275f1 094ae14b42cc9745 094ae14b42cc9745
8496de1faa9a0273 8496de1faa9a0273 ae471c8a6bcfaf0b ae471c8a6bcfaf0b
85d4e307413a8f9c b2c1e144ede9fb64 4daf779771e9444e 4daf779771e9444e
87a9eb87f14a1c04 87a9eb87f14a1c04 95459b241a8d1fc1 95459b241a8d1fc1
3cb7b051a18c06d8 3cb7b051a18c06d8 1612938927c716c3 8d26f20dbaf558ab
b1736e233279b782 b1736e233279b782 39c526e371a9dc62 39c526e371a9dc62
604d7e84102400bd 604d7e84102400bd 09d1ee02fa9db790 09d1ee02fa9db790
059cdee7d553395d ae782081dc98d19f 4176a8f9a3ec9876 4176a8f9a3ec9876
7dd10f0e92fbb850 7dd10f0e92fbb850 37851649c827d9f0 37851649c827d9f0
d0a27f938712b26b d0a27f938712b26b 4a8793305a28eba1 d71d56f9ffe5e0f8
68822548700fee0c 68822548700fee0c 2f6573edd01dbbcf 2f6573edd01dbbcf
e0771e08f7c9b137 e0771e08f7c9b137 43e60a052fe58bfb 43e60a052fe58bfb
1874d501cab2f910 1f9f1ffd04c73786 84b7ccfa4b51b63d 84b7ccfa4b51b63d
0ad7e5c0312285d5 0ad7e5c0312285d5 a09d6a1697e7f29f a09d6a1697e7f29f
732ab29256e95377 732ab29256e95377 7d93b1f47567797c 6efe9fc64ac8737b
3db618983235f57f 3db618983235f57f 7ff54c456689f5b6 7ff54c456689f5b6
632d3e7921a5d57b 632d3e7921a5d57b 468b59dee10a5968 468b59dee10a5968
b80c271f1fc52181 af351a846d16239f 9eb2bb2ec79bc405 9eb2bb2ec79bc405
87de7a7b2120b66c 87de7a7b2120b66c 6f318dbf1fb4f702 6f318dbf1fb4f702
7d559f30d33eeed7 7d559f30d33eeed7 d2f6c00d7dd0c600 d2f6c00d7dd0c600
2e23eb6fa756e2e5 2e23eb6fa756e2e5 0edf64e0a704c456 0edf64e0a704c456
38c3d3d320c22ff1 38c3d3d320c22ff1 11d6026754f3d629 11d6026754f3d629
3e0fa8c9aa2295d5 1808b91a29b51a54 6c4f11a5c0bc523f 6c4f11a5c0bc523f
66837bcd2b02e733 66837bcd2b02e733 ead2131ad33ccd32 ead2131ad33ccd32
93cf9500ccf6ad85 93cf9500ccf6ad85 2f39d0029bc668c1 2f39d0029bc668c1
a203cad951022d1c a203cad951022d1c 8c09dce51451a66f 8c09dce51451a66f
743ab0904e61e378 743ab0904e61e378 7c1fba0cc1523c4c 7c1fba0cc1523c4c
96c9e8d87f5206dc 96c9e8d87f5206dc f788ab6b4197a6d7 f788ab6b4197a6d7
2e7ae111600c311b 2e7ae111600c311b 86f715e111e18072 86f715e111e18072
13e9e3ca833858e8 13e9e3ca833858e8 6d7f19f2fc686ea8 6d7f19f2fc686ea8
5d84fbd652605695 5d84fbd652605695 4c396dbdf2d17a6a 4c396dbdf2d17a6a
4464c42a6ff7f94c 4464c42a6ff7f94c 7a16b781c4634a92 7a16b781c4634a92
974a1f92fa45b37e 974a1f92fa45b37e 43b7d0f0cb00fe0e 43b7d0f0cb00fe0e
182e7442e8649c8c 182e7442e8649c8c 6518b3f7736a85dd 6518b3f7736a85dd
40de3a62162e647c 40de3a62162e647c 16f0d8e014a91840 16f0d8e014a91840
08d39e69810482a1 08d39e69810482a1 a77ef3e4d2176b3e a77ef3e4d2176b3e
a1fceecb05503567 a1fceecb05503567 cd21a2d6dad47d66 cd21a2d6dad47d66
530ba77a0af500a7 530ba77a0af500a7 8ccf8121b1b54f7e 8ccf8121b1b54f7e
e75ef6af198ff5ca e75ef6af198ff5ca 2a14d42ff47180f8 2a14d42ff47180f8
ed7c10a84a738696 ed7c10a84a738696 80ffd0acfd473a20 f0eba91f01f09dd3
6188c19d2af8ed18 6188c19d2af8ed18 c5904e69d9f2f863 c5904e69d9f2f863
f840a3735858687b f840a3735858687b b4206d28e244d42e b4206d28e244d42e
9a696c523a1bcd71 77a5a3d2a71a951f 8f84a702be4636f8 8f84a702be4636f8
b7a4ba3761ea9438 b7a4ba3761ea9438 f1fa0fb69fa939dc f1fa0fb69fa939dc
f9cb9a0fd389654f f9cb9a0fd389654f 230e1bf1ca8649cf 1ecf1d2bd88c5cfb
b0ee136acdf2d3b1 b0ee136acdf2d3b1 fe66ae6e0e344da4 fe66ae6e0e344da4
b19cc02f338224ab b19cc02f338224ab 095134fb8ebf4b7c 095134fb8ebf4b7c
bd74e3fd0fe0f38c 4f42562726a7963e 04ae27729421f98b 04ae27729421f98b
3ed8a5e25794f5ea 3ed8a5e25794f5ea 02ef120a3b2dbdb8 02ef120a3b2dbdb8
2394f04e521cf91b 2394f04e521cf91b d0723421fba9f5ae 8551bfd5cb7d69ba
2bfe36911da5e3cb 2bfe36911da5e3cb d20418f004d264c3 d20418f004d264c3
2a78170be2972224 2a78170be2972224 f478d977f318ca67 f478d977f318ca67
c443d936047d0728 db71c4fa84524093 2d0019071eb16aa5 2d0019071eb16aa5
82139d9fb81b7195 82139d9fb81b7195 c4f89d8abc5ce0fb c4f89d8abc5ce0fb
a4ad17f5e0b1899e a4ad17f5e0b1899e 5ecd26ccf9f3fe57 5ecd26ccf9f3fe57
91c9144046f699f6 91c9144046f699f6 a2c6902f68c5ae51 a2c6902f68c5ae51
f848ce2866722867 f848ce2866722867 39c7d2f7a346e55b 39c7d2f7a346e55b
8b27fc569fd809ef 8b27fc569fd809ef 99ba4affef96573e 99ba4affef96573e
35baae18748fcba4 35baae18748fcba4 9ca5b24c3e2b4a5c 9ca5b24c3e2b4a5c
91176d524847ce58 91176d524847ce58 5a57e65b5afb37a2 5a57e65b5afb37a2
ef2edc763b39002e ef2edc763b39002e 5b43c0d10b5bc624 5b43c0d10b5bc624
3380898d075aa2ef 3380898d075aa2ef 085a9b524d513f12 085a9b524d513f12
84cc980315d25a66 84cc980315d25a66 278d07aebd401137 278d07aebd401137
2fcefbeadd239c31 2fcefbeadd239c31 9eff88935ce26385 9eff88935ce26385
219efb55f2263cde 219efb55f2263cde ab775cb8258cebfc ab775cb8258cebfc
ca5c18f19de86ae1 ca5c18f19de86ae1 42f7dd331b868664 42f7dd331b868664
ad72a144481219ce ad72a144481219ce e90452145377c08c e90452145377c08c
c9bec849448cf901 c9bec849448cf901 5f75de16a9ed52d3 5f75de16a9ed52d3
661f969247ad2e85 661f969247ad2e85 a8d1921beb9e092f a8d1921beb9e092f
905e608b19a3dd1a 905e608b19a3dd1a 3e955e6b8780c6fb 3e955e6b8780c6fb
b7502c6a0045a926 b7502c6a0045a926 36dedd155881a49c 36dedd155881a49c
f03b1b785ef248d2 f03b1b785ef248d2 e40ae0cdfb5be22f e40ae0cdfb5be22f
d147ca43c7d26ba4 d147ca43c7d26ba4 4ced8b8f08c9d904 4ced8b8f08c9d904
255c8d0c40ab52cf 255c8d0c40ab52cf 4346d903c5c3a85b 4346d903c5c3a85b
844b819a86da3397 844b819a86da3397 4434f3cd1702c222 4434f3cd1702c222
d34cec1b233f4748 d34cec1b233f4748 0b9baeea0ee3a939 0b9baeea0ee3a939
effa43b603d7aa72 effa43b603d7aa72 3ead247a3efac9bf 3ead247a3efac9bf
f97242563199f59a f97242563199f59a 0c247c8b07f740cb 0c247c8b07f740cb
6253b5da634eae5f 6253b5da634eae5f 55b0b392c01e3317 55b0b392c01e3317
4c743c9ade76d4af 4c743c9ade76d4af 45ac234a72e4d614 45ac234a72e4d614
dd3aff50ce34c7e4 dd3aff50ce34c7e4 1ee3d2f9ea8c87d0 1ee3d2f9ea8c87d0
ea5560568df0e2e3 ea5560568df0e2e3 7674e842f744bcde 7674e842f744bcde
4337b09417b71ca2 4337b09417b71ca2 6d5fd8966ce29c68 6d5fd8966ce29c68
4be9b5593459e3b0 4be9b5593459e3b0 39ef94a4c3e6e839 39ef94a4c3e6e839
3a5ea0e435894543 3a5ea0e435894543 82dcab8a48e5bf58 dfc688085139a46a
8ec6af9cb8c9e3ca 8ec6af9cb8c9e3ca c3e565c3c0f05e57 c3e565c3c0f05e57
4978b04d56e2274f 4978b04d56e2274f e0a891dcb687e029 e0a891dcb687e029
49a492d3d02c41f8 cfa102b07b156f00 03b85bcc4eea41af 03b85bcc4eea41af
a4d6a4dc43632c12 a4d6a4dc43632c12 fdbe0d2fed932723 fdbe0d2fed932723
7202de2d982ed5ab 7202de2d982ed5ab c2996051ace39a84 b980c3b115f72634
7595660a78d759a1 7595660a78d759a1 d3caf0dcb6f69394 63a8179f05456da6
45e9a410bd616af8 45e9a410bd616af8 ec57746f5a237f52 ec57746f5a237f52
a6016c43a01e8406 807a221b32c9580e 8dacff6222e9b96b 8dacff6222e9b96b
ecb72ccc2e450fff ecb72ccc2e450fff 249e6a7c052d76f9 249e6a7c052d76f9
c642aa30d51dacce c642aa30d51dacce 99cca8ffa21b22fc c0073ef6436e31f5
8dc74052b34885cb 8dc74052b34885cb 8e6414046fa8f3f8 89438eaf3e27387d
4da8e4aa76143850 4da8e4aa76143850 2d6bc7c65e7725ed 2d6bc7c65e7725ed
997993497c9fb2a2 e84acd40d6be7d60 2ea4f6a1d33eea3b 2ea4f6a1d33eea3b
9c0b1f5352dbb3f2 9c0b1f5352dbb3f2 a7d3062c9de504b2 a7d3062c9de504b2
eefb440bb37a90ac eefb440bb37a90ac 48faaf51e829821c 97ca1abc12f319bc
60782852bd4fd719 60782852bd4fd719 037c8b0c49d94bd5 037c8b0c49d94bd5
c6d0024b80f3bc13 c6d0024b80f3bc13 eb109a1a1943be5b eb109a1a1943be5b
61a6a399e027088d 191551e1cdd64747 6ed32b205abaed47 6ed32b205abaed47
ed2e2c4792c6bedf ed2e2c4792c6bedf 3f9088d67070296a 3f9088d67070296a
98f1319bd486751f 98f1319bd486751f 24eefa1be20027ec d8963afd6bd2cc77
5e4ab2b6ecec5cba 5e4ab2b6ecec5cba e3ad2cf789e62968 e3ad2cf789e62968
c53d2297fd74d092 c53d2297fd74d092 8b3f3d5d8987d2d1 8b3f3d5d8987d2d1
dbd039f177d97fd0 f77521e29eea640d f7f8c257451ba65d f7f8c257451ba65d
3c5daaf5b3ced11a 3c5daaf5b3ced11a 850ce3122598a32f 850ce3122598a32f
cadfd49e32255e82 cadfd49e32255e82 a225e66e1fb27c59 ae8801441f724637
1507de4ef50de247 1507de4ef50de247 70847f7a34dfb845 70847f7a34dfb845
43437afe12476576 43437afe12476576 4de176881015ea62 4de176881015ea62
42c649a374833d07 2c21225d6f1c6129 342fb550b6f64ab4 342fb550b6f64ab4
7b7b7a3a84fb079b 7b7b7a3a84fb079b 5c10a3f01bdd5eef 5c10a3f01bdd5eef
92034d83c6ceb060 92034d83c6ceb060 f9a28d618ed97d1a f9a28d618ed97d1a
7e14d6b11077177b 7e14d6b11077177b 759de05370772fd2 759de05370772fd2
afe24a5c81ec64d9 afe24a5c81ec64d9 4354cb4f089fad77 4354cb4f089fad77
37edafe8402c3d98 37edafe8402c3d98 7f8a715990ca26c0 7f8a715990ca26c0
eaaab8901cb7af58 eaaab8901cb7af58 61e73d9101212c02 61e73d9101212c02
c470f7cbcf1721fd c470f7cbcf1721fd 4dca5f5043abb8b0 4dca5f5043abb8b0
c0e5ed4de133193f c0e5ed4de133193f bfe3fb9f297b5e82 bfe3fb9f297b5e82
c58f8808c91898d6 c58f8808c91898d6 1dd79aba85bbc812 1dd79aba85bbc812
11b1f194fb1dc4f2 11b1f194fb1dc4f2 9c95a646479ab53e 9c95a646479ab53e
d90554ca4aab8874 d90554ca4aab8874 53ef7407cde7828e 53ef7407cde7828e
f3490de93169ad31 f3490de93169ad31 3b645d483d5b890b 3b645d483d5b890b
be28d979ffc220bb be28d979ffc220bb 3cd0cb7f04a2014c 3cd0cb7f04a2014c
e5b0f3346edb9b5a e5b0f3346edb9b5a 55cc02831bf41d25 55cc02831bf41d25
14e6023017855ff9 14e6023017855ff9 c253e51e6d4dc538 c253e51e6d4dc538
a9dbb705f07e529a 741a3c82866b7244
";

#[test]
fn golden_grid_outputs_are_pinned_bit_for_bit() {
    let cells = golden_cells();
    let golden: Vec<u64> = GOLDEN
        .split_whitespace()
        .map(|w| u64::from_str_radix(w, 16).expect("hex hash"))
        .collect();
    let got: Vec<u64> = cells
        .iter()
        .map(|(_, b, p)| report_hash(&b.simulate(*p).expect("golden cell simulates")))
        .collect();
    let mismatched: Vec<&str> = cells
        .iter()
        .zip(&got)
        .enumerate()
        .filter(|(k, (_, h))| golden.get(*k) != Some(h))
        .map(|(_, ((label, _, _), _))| label.as_str())
        .collect();
    if !mismatched.is_empty() {
        let table: Vec<String> = got
            .chunks(4)
            .map(|row| {
                let words: Vec<String> = row.iter().map(|h| format!("{h:016x}")).collect();
                words.join(" ")
            })
            .collect();
        panic!(
            "{} of {} cells moved: {:?}\nregenerated table:\n{}",
            mismatched.len(),
            cells.len(),
            mismatched,
            table.join("\n")
        );
    }
    assert_eq!(golden.len(), cells.len());
}
