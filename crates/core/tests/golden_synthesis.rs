//! Golden characterization table: every `CharRow` of the round-robin
//! sweep for N = 2..=16 across the three (tool, encoding) series at speed
//! grade −3, plus an FNV-1a fingerprint of each row's mapped netlist; and
//! the same for the largest rows, N = 21, 22 and 32. A third table pins
//! the generated VHDL of every policy, and a fourth the rows and netlists
//! of the synthesized machines the sweep does not reach: FPGA Express
//! with Gray encoding, the parallel-prefix round-robin machine and the
//! preemptive one.
//!
//! The expected values were recorded from the synthesis pipeline before
//! the two-level minimizer's containment check and merge loop and the
//! technology mapper's divisor extraction were rewritten, so this test is
//! an oracle that is independent of all three: any change to a cover, to
//! the order of emitted LUT nodes or to a `NetRef` shows up as a changed
//! fingerprint.

use rcarb_board::device::SpeedGrade;
use rcarb_core::characterize::Characterization;
use rcarb_core::generator::{ArbiterGenerator, ArbiterSpec};
use rcarb_core::policy::PolicyKind;
use rcarb_logic::encode::EncodingStyle;
use rcarb_logic::tools::ToolModel;

/// 64-bit FNV-1a over a byte string.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// One line per row: `n tool encoding clbs fmax luts ffs levels netlist`.
/// `fmax` is printed with `{:?}` so the line pins the exact `f64`.
fn actual_table(ns: impl IntoIterator<Item = usize>) -> Vec<String> {
    let grade = SpeedGrade::Minus3;
    let table = Characterization::sweep_round_robin(ns, grade);
    table
        .rows()
        .iter()
        .map(|r| {
            let tool = match r.tool {
                "synplify" => ToolModel::synplify(),
                "fpga_express" => ToolModel::fpga_express(),
                other => panic!("unexpected tool {other}"),
            };
            // Served from the synthesis cache the sweep just filled.
            let report = ArbiterGenerator::new()
                .with_grade(grade)
                .generate(&ArbiterSpec::round_robin(r.n).with_encoding(r.encoding))
                .synthesize(&tool);
            assert_eq!(report.clbs(), r.clbs, "row and report disagree");
            let fp = fnv1a(format!("{:?}", report.netlist).as_bytes());
            format!(
                "{} {} {} {} {:?} {} {} {} {fp:016x}",
                r.n, r.tool, r.encoding, r.clbs, r.fmax_mhz, r.luts, r.ffs, r.levels
            )
        })
        .collect()
}

const EXPECTED: &[&str] = &[
    "2 fpga_express one-hot 7 52.18108301273067 10 4 3 6cba9a42486a0cdc",
    "2 fpga_express compact 4 114.34856219172633 4 2 1 57a05ae2fdfd862b",
    "2 synplify one-hot 5 52.18108301273067 10 4 3 6cba9a42486a0cdc",
    "3 fpga_express one-hot 15 48.137427475347515 21 6 3 54478d8440fdb815",
    "3 fpga_express compact 25 36.16416936622074 31 3 4 85dc2aa9e50d5630",
    "3 synplify one-hot 10 48.137427475347515 21 6 3 54478d8440fdb815",
    "4 fpga_express one-hot 24 45.693840486296956 37 8 3 4fcb89866592a3fb",
    "4 fpga_express compact 30 28.584069596671412 45 3 5 f42b0352dc854423",
    "4 synplify one-hot 16 45.693840486296956 37 8 3 4fcb89866592a3fb",
    "5 fpga_express one-hot 40 32.59588559920602 69 10 4 4447511b89ecc651",
    "5 fpga_express compact 80 20.48390880862952 136 4 6 efc1e203f34a0ae8",
    "5 synplify one-hot 26 32.59588559920602 69 10 4 4447511b89ecc651",
    "6 fpga_express one-hot 56 25.1271655623866 103 12 5 8e278f08b0e8376d",
    "6 fpga_express compact 101 19.296067779260333 180 4 6 9cf283ced22b252c",
    "6 synplify one-hot 37 25.1271655623866 103 12 5 8e278f08b0e8376d",
    "7 fpga_express one-hot 74 23.89463964986615 136 14 5 47fdf6b5671f5f83",
    "7 fpga_express compact 148 15.560662091195955 268 4 7 d9079a1fb710668e",
    "7 synplify one-hot 48 23.89463964986615 136 14 5 47fdf6b5671f5f83",
    "8 fpga_express one-hot 88 23.509986662876656 161 16 5 39234e3f030f42d6",
    "8 fpga_express compact 122 16.187281076181378 209 4 7 f5b3c0f8e4a8b08e",
    "8 synplify one-hot 57 23.509986662876656 161 16 5 39234e3f030f42d6",
    "9 fpga_express one-hot 113 22.173413626176444 209 18 5 2690f26d7dc660da",
    "9 fpga_express compact 259 13.708131806603285 471 5 7 d010d1548f910b80",
    "9 synplify one-hot 74 22.173413626176444 209 18 5 2690f26d7dc660da",
    "10 fpga_express one-hot 142 21.259642862779067 262 20 5 a5807406ddc2cefc",
    "10 fpga_express compact 297 13.257752768384902 552 5 7 4aec09cd1f437c88",
    "10 synplify one-hot 93 21.259642862779067 262 20 5 a5807406ddc2cefc",
    "11 fpga_express one-hot 167 20.546463689910315 309 22 5 22cfb4208b4c5940",
    "11 fpga_express compact 396 12.290559701451269 736 5 7 906bd2d1cdeb6cbd",
    "11 synplify one-hot 109 20.546463689910315 309 22 5 22cfb4208b4c5940",
    "12 fpga_express one-hot 189 20.360949159477958 342 24 5 899b608c0e6dae90",
    "12 fpga_express compact 418 12.103625699522476 777 5 7 596a294a60699546",
    "12 synplify one-hot 124 20.360949159477958 342 24 5 899b608c0e6dae90",
    "13 fpga_express one-hot 244 19.457020956226938 406 26 5 aac121c3871bf8bb",
    "13 fpga_express compact 564 10.003175491988195 995 5 8 c49167addac445c0",
    "13 synplify one-hot 159 19.457020956226938 406 26 5 aac121c3871bf8bb",
    "14 fpga_express one-hot 282 18.82139419227361 475 28 5 47eabf58ca9884d6",
    "14 fpga_express compact 596 9.82208866512974 1056 5 8 89ad47b872cc7e85",
    "14 synplify one-hot 184 18.82139419227361 475 28 5 47eabf58ca9884d6",
    "15 fpga_express one-hot 322 18.322117853396858 534 30 5 28118939175ea14e",
    "15 fpga_express compact 702 9.492410830257342 1192 5 8 b664393a00066f54",
    "15 synplify one-hot 210 18.322117853396858 534 30 5 28118939175ea14e",
    "16 fpga_express one-hot 349 18.0347469991534 592 32 5 eec64ba30e00145b",
    "16 fpga_express compact 484 10.47964804775719 821 5 8 6306e1eea30125be",
    "16 synplify one-hot 228 18.0347469991534 592 32 5 eec64ba30e00145b",
];

#[test]
fn characterization_table_and_netlists_match_the_recorded_golden() {
    let actual = actual_table(2..=16);
    assert_eq!(actual.len(), 15 * 3, "three series for each N in 2..=16");
    for (i, (a, e)) in actual.iter().zip(EXPECTED).enumerate() {
        assert_eq!(a, e, "row {i} changed");
    }
    assert_eq!(actual.len(), EXPECTED.len(), "\n{}", actual.join("\n"));
}

/// The largest covers the sweep synthesizes: the last one-hot size and
/// compact up to the generator's N = 32, where adjacent merging and
/// don't-care expansion do the most work.
const EXPECTED_LARGE: &[&str] = &[
    "21 fpga_express one-hot 623 12.810794523323553 1158 42 6 b3a74f9b78b2204e",
    "21 fpga_express compact 1473 6.733688108704875 2692 6 9 547eb81b61461743",
    "21 synplify one-hot 407 12.810794523323553 1158 42 6 b3a74f9b78b2204e",
    "22 fpga_express compact 1530 7.403578775643516 2845 6 8 e8b234d80bb2a57f",
    "32 fpga_express compact 1925 6.28514341817042 3364 6 9 7ba87b2cb81abfed",
];

#[test]
fn largest_rows_match_the_recorded_golden() {
    let actual = actual_table([21, 22, 32]);
    assert_eq!(actual, EXPECTED_LARGE, "\n{}", actual.join("\n"));
}

/// One line per generated arbiter: `policy n encoding bytes vhdl`, the
/// last an FNV-1a fingerprint of [`GeneratedArbiter::vhdl`]. Sizes that
/// do not fit the synthesizer (the preemptive machine above N = 10) are
/// skipped: their VHDL is a synthesized netlist.
///
/// [`GeneratedArbiter::vhdl`]: rcarb_core::generator::GeneratedArbiter::vhdl
fn actual_vhdl() -> Vec<String> {
    let synplify = ToolModel::synplify();
    let mut lines = Vec::new();
    for policy in PolicyKind::ALL {
        for n in [2, 3, 4, 8, 16] {
            for encoding in [EncodingStyle::OneHot, EncodingStyle::Compact] {
                let spec = ArbiterSpec::round_robin(n)
                    .with_policy(policy)
                    .with_encoding(encoding);
                if !spec.fits_synthesizer(&synplify) {
                    continue;
                }
                let vhdl = ArbiterGenerator::new().generate(&spec).vhdl().to_owned();
                lines.push(format!(
                    "{policy} {n} {encoding} {} {:016x}",
                    vhdl.len(),
                    fnv1a(vhdl.as_bytes())
                ));
            }
        }
    }
    lines
}

/// Recorded from the eager generator, which rendered VHDL inside
/// `generate` and ran a fresh Synplify synthesis for the preemptive
/// machine's netlist entity; lazy rendering from the synthesis cache
/// must reproduce every byte.
const EXPECTED_VHDL: &[&str] = &[
    "round-robin 2 one-hot 2029 6f9f7d486dddfdaa",
    "round-robin 2 compact 2029 23e3f2b37c2b5fa6",
    "round-robin 3 one-hot 3349 fd5f25b09cc7d25e",
    "round-robin 3 compact 3349 29033eb3708c93a6",
    "round-robin 4 one-hot 5289 41e49a6bf77d3774",
    "round-robin 4 compact 5289 2986247a72946a48",
    "round-robin 8 one-hot 21289 8d8a20f8182b8e50",
    "round-robin 8 compact 21289 ff9ef7c777802e94",
    "round-robin 16 one-hot 116153 dcc35a58cb420c00",
    "round-robin 16 compact 116153 3ce3783f9cac58e2",
    "random 2 one-hot 1932 e7ba6346c712116a",
    "random 2 compact 1932 e7ba6346c712116a",
    "random 3 one-hot 3418 640a5fda5976ec59",
    "random 3 compact 3418 640a5fda5976ec59",
    "random 4 one-hot 6627 38e9b367db6ac047",
    "random 4 compact 6627 38e9b367db6ac047",
    "random 8 one-hot 23173 5041322d0f7f55bb",
    "random 8 compact 23173 5041322d0f7f55bb",
    "random 16 one-hot 97478 f502ae061a0a411f",
    "random 16 compact 97478 f502ae061a0a411f",
    "fifo 2 one-hot 2096 ad657be1fbeaed5f",
    "fifo 2 compact 2096 ad657be1fbeaed5f",
    "fifo 3 one-hot 4091 317794b73a7c3dc3",
    "fifo 3 compact 4091 317794b73a7c3dc3",
    "fifo 4 one-hot 7111 c946c5ddf31124fb",
    "fifo 4 compact 7111 c946c5ddf31124fb",
    "fifo 8 one-hot 26158 ed5dbf6254237f7c",
    "fifo 8 compact 26158 ed5dbf6254237f7c",
    "fifo 16 one-hot 102438 180809851db16dcc",
    "fifo 16 compact 102438 180809851db16dcc",
    "static-priority 2 one-hot 1138 f103d703fa372f99",
    "static-priority 2 compact 1138 f103d703fa372f99",
    "static-priority 3 one-hot 1570 1d4ea8e59ffa0a8e",
    "static-priority 3 compact 1570 1d4ea8e59ffa0a8e",
    "static-priority 4 one-hot 2280 a92d89682c2a752b",
    "static-priority 4 compact 2280 a92d89682c2a752b",
    "static-priority 8 one-hot 4380 0fee730861ea8e3c",
    "static-priority 8 compact 4380 0fee730861ea8e3c",
    "static-priority 16 one-hot 9356 2f47a1cd300a8a2e",
    "static-priority 16 compact 9356 2f47a1cd300a8a2e",
    "preemptive-rr 2 one-hot 4979 669e78ffbf58fdea",
    "preemptive-rr 2 compact 4979 669e78ffbf58fdea",
    "preemptive-rr 3 one-hot 8582 a8b55b785149bc26",
    "preemptive-rr 3 compact 8582 a8b55b785149bc26",
    "preemptive-rr 4 one-hot 15449 ec0b496c98894bdc",
    "preemptive-rr 4 compact 15449 ec0b496c98894bdc",
    "preemptive-rr 8 one-hot 48449 6f78b5ec18ceb7e2",
    "preemptive-rr 8 compact 48449 6f78b5ec18ceb7e2",
    "prefix-rr 2 one-hot 2029 6f9f7d486dddfdaa",
    "prefix-rr 2 compact 2029 23e3f2b37c2b5fa6",
    "prefix-rr 3 one-hot 3349 fd5f25b09cc7d25e",
    "prefix-rr 3 compact 3349 29033eb3708c93a6",
    "prefix-rr 4 one-hot 5289 41e49a6bf77d3774",
    "prefix-rr 4 compact 5289 2986247a72946a48",
    "prefix-rr 8 one-hot 21289 8d8a20f8182b8e50",
    "prefix-rr 8 compact 21289 ff9ef7c777802e94",
    "prefix-rr 16 one-hot 116153 dcc35a58cb420c00",
    "prefix-rr 16 compact 116153 3ce3783f9cac58e2",
];

#[test]
fn generated_vhdl_matches_the_recorded_golden() {
    let actual = actual_vhdl();
    assert_eq!(actual, EXPECTED_VHDL, "\n{}", actual.join("\n"));
}

/// One line per synthesized FSM arbiter that the round-robin sweep does
/// not reach but a served `Synthesize` request can: FPGA Express with
/// Gray encoding, the parallel-prefix round-robin machine and the
/// preemptive one, each as `policy n tool encoding clbs fmax luts ffs
/// levels netlist`.
fn actual_other_rows() -> Vec<String> {
    let grade = SpeedGrade::Minus3;
    let express = ToolModel::fpga_express();
    let synplify = ToolModel::synplify();
    let series = [
        (&express, EncodingStyle::OneHot),
        (&express, EncodingStyle::Compact),
        (&synplify, EncodingStyle::OneHot),
    ];
    let mut cases = Vec::new();
    for n in 2..=16 {
        cases.push((PolicyKind::RoundRobin, n, &express, EncodingStyle::Gray));
    }
    for n in 2..=12 {
        for &(tool, encoding) in &series {
            cases.push((PolicyKind::PrefixRoundRobin, n, tool, encoding));
        }
    }
    for n in 2..=32 {
        for &(tool, encoding) in &series {
            cases.push((PolicyKind::PreemptiveRoundRobin, n, tool, encoding));
        }
    }
    cases
        .into_iter()
        .filter_map(|(policy, n, tool, encoding)| {
            let spec = ArbiterSpec::round_robin(n)
                .with_policy(policy)
                .with_encoding(encoding);
            if !spec.fits_synthesizer(tool) {
                return None;
            }
            let r = ArbiterGenerator::new()
                .with_grade(grade)
                .synthesize(&spec, tool);
            let fp = fnv1a(format!("{:?}", r.netlist).as_bytes());
            Some(format!(
                "{policy} {n} {} {} {} {:?} {} {} {} {fp:016x}",
                r.tool,
                r.encoding_used,
                r.clbs(),
                r.fmax_mhz(),
                r.clb.luts,
                r.clb.ffs,
                r.timing.levels
            ))
        })
        .collect()
}

/// Recorded before the technology mapper's divisor index and LUT cache
/// were rewritten.
const EXPECTED_OTHERS: &[&str] = &[
    "round-robin 2 fpga_express gray 4 114.34856219172633 4 2 1 cd9ed18cb405bd50",
    "round-robin 3 fpga_express gray 18 30.68005906837483 28 3 5 fee933730e12c878",
    "round-robin 4 fpga_express gray 38 27.133682535507937 58 3 5 7d8231e8da512feb",
    "round-robin 5 fpga_express gray 79 20.622641520581794 129 4 6 5924112d2c90c039",
    "round-robin 6 fpga_express gray 131 18.596326051787045 214 4 6 0fd99bd56446d770",
    "round-robin 7 fpga_express gray 155 15.37003088689561 266 4 7 af7d790746f4cf59",
    "round-robin 8 fpga_express gray 166 14.927979734223374 307 4 7 b7b5da48cea5a88e",
    "round-robin 9 fpga_express gray 265 13.520085462653352 490 5 7 bd6c02db739434a8",
    "round-robin 10 fpga_express gray 358 12.574501908915094 664 5 7 8ea0036af2e1ea4f",
    "round-robin 11 fpga_express gray 415 12.227671227924658 765 5 7 695c814f860c3004",
    "round-robin 12 fpga_express gray 427 12.075870331064046 793 5 7 394bb456d1c2cea3",
    "round-robin 13 fpga_express gray 596 9.83247639111486 1048 5 8 f561d217dd6bad01",
    "round-robin 14 fpga_express gray 702 9.389985275455146 1225 5 8 1bffcb339e00d815",
    "round-robin 15 fpga_express gray 738 9.309949427211667 1269 5 8 a5f70b706991e60c",
    "round-robin 16 fpga_express gray 630 9.645324572627112 1125 5 8 f36bab11bb57e59d",
    "prefix-rr 2 fpga_express one-hot 7 52.18108301273067 10 4 3 6cba9a42486a0cdc",
    "prefix-rr 2 fpga_express compact 4 114.34856219172633 4 2 1 57a05ae2fdfd862b",
    "prefix-rr 2 synplify one-hot 5 52.18108301273067 10 4 3 6cba9a42486a0cdc",
    "prefix-rr 3 fpga_express one-hot 15 48.137427475347515 21 6 3 54478d8440fdb815",
    "prefix-rr 3 fpga_express compact 25 36.16416936622074 31 3 4 85dc2aa9e50d5630",
    "prefix-rr 3 synplify one-hot 10 48.137427475347515 21 6 3 54478d8440fdb815",
    "prefix-rr 4 fpga_express one-hot 24 45.693840486296956 37 8 3 4fcb89866592a3fb",
    "prefix-rr 4 fpga_express compact 30 28.584069596671412 45 3 5 f42b0352dc854423",
    "prefix-rr 4 synplify one-hot 16 45.693840486296956 37 8 3 4fcb89866592a3fb",
    "prefix-rr 5 fpga_express one-hot 40 32.59588559920602 69 10 4 4447511b89ecc651",
    "prefix-rr 5 fpga_express compact 80 20.48390880862952 136 4 6 efc1e203f34a0ae8",
    "prefix-rr 5 synplify one-hot 26 32.59588559920602 69 10 4 4447511b89ecc651",
    "prefix-rr 6 fpga_express one-hot 56 25.1271655623866 103 12 5 8e278f08b0e8376d",
    "prefix-rr 6 fpga_express compact 101 19.296067779260333 180 4 6 9cf283ced22b252c",
    "prefix-rr 6 synplify one-hot 37 25.1271655623866 103 12 5 8e278f08b0e8376d",
    "prefix-rr 7 fpga_express one-hot 74 23.89463964986615 136 14 5 47fdf6b5671f5f83",
    "prefix-rr 7 fpga_express compact 148 15.560662091195955 268 4 7 d9079a1fb710668e",
    "prefix-rr 7 synplify one-hot 48 23.89463964986615 136 14 5 47fdf6b5671f5f83",
    "prefix-rr 8 fpga_express one-hot 88 23.509986662876656 161 16 5 39234e3f030f42d6",
    "prefix-rr 8 fpga_express compact 122 16.187281076181378 209 4 7 f5b3c0f8e4a8b08e",
    "prefix-rr 8 synplify one-hot 57 23.509986662876656 161 16 5 39234e3f030f42d6",
    "prefix-rr 9 fpga_express one-hot 113 22.173413626176444 209 18 5 2690f26d7dc660da",
    "prefix-rr 9 fpga_express compact 259 13.708131806603285 471 5 7 d010d1548f910b80",
    "prefix-rr 9 synplify one-hot 74 22.173413626176444 209 18 5 2690f26d7dc660da",
    "prefix-rr 10 fpga_express one-hot 142 21.259642862779067 262 20 5 a5807406ddc2cefc",
    "prefix-rr 10 fpga_express compact 297 13.257752768384902 552 5 7 4aec09cd1f437c88",
    "prefix-rr 10 synplify one-hot 93 21.259642862779067 262 20 5 a5807406ddc2cefc",
    "prefix-rr 11 fpga_express one-hot 167 20.546463689910315 309 22 5 22cfb4208b4c5940",
    "prefix-rr 11 fpga_express compact 396 12.290559701451269 736 5 7 906bd2d1cdeb6cbd",
    "prefix-rr 11 synplify one-hot 109 20.546463689910315 309 22 5 22cfb4208b4c5940",
    "prefix-rr 12 fpga_express one-hot 189 20.360949159477958 342 24 5 899b608c0e6dae90",
    "prefix-rr 12 fpga_express compact 418 12.103625699522476 777 5 7 596a294a60699546",
    "prefix-rr 12 synplify one-hot 124 20.360949159477958 342 24 5 899b608c0e6dae90",
    "preemptive-rr 2 fpga_express one-hot 20 37.208514415358856 28 10 4 ffb7767f427d4da0",
    "preemptive-rr 2 fpga_express compact 21 36.611016822981966 26 4 4 6073462d1dac1471",
    "preemptive-rr 2 synplify one-hot 13 37.208514415358856 28 10 4 ffb7767f427d4da0",
    "preemptive-rr 3 fpga_express one-hot 32 34.921282070517066 45 15 4 a723b4736ac3f279",
    "preemptive-rr 3 fpga_express compact 47 26.409821061849104 74 4 5 d810ec5f284d0cae",
    "preemptive-rr 3 synplify one-hot 21 34.921282070517066 45 15 4 a723b4736ac3f279",
    "preemptive-rr 4 fpga_express one-hot 50 33.2441676329215 69 20 4 1af0876002dd444b",
    "preemptive-rr 4 fpga_express compact 94 20.01425833282138 148 5 6 7277c7d4b1e4aa8f",
    "preemptive-rr 4 synplify one-hot 33 33.2441676329215 69 20 4 1af0876002dd444b",
    "preemptive-rr 5 fpga_express one-hot 72 21.20731787416694 114 25 6 2b0b4420628aae2c",
    "preemptive-rr 5 fpga_express compact 134 18.361928970194796 233 5 6 444245efed194d9d",
    "preemptive-rr 5 synplify one-hot 47 21.20731787416694 114 25 6 2b0b4420628aae2c",
    "preemptive-rr 6 fpga_express one-hot 93 19.910226603727104 163 30 6 1833fe6b1609f037",
    "preemptive-rr 6 fpga_express compact 176 14.80826347930668 327 5 7 227184ad90748ac2",
    "preemptive-rr 6 synplify one-hot 61 19.910226603727104 163 30 6 1833fe6b1609f037",
    "preemptive-rr 7 fpga_express one-hot 116 18.98461965385875 206 35 6 c35cf32c83c554d0",
    "preemptive-rr 7 fpga_express compact 277 13.442586967090422 514 6 7 d5714b7c26cca886",
    "preemptive-rr 7 synplify one-hot 76 18.98461965385875 206 35 6 c35cf32c83c554d0",
    "preemptive-rr 8 fpga_express one-hot 143 18.62817021239951 241 40 6 0c6b9123410261a9",
    "preemptive-rr 8 fpga_express compact 319 13.03273525992498 592 6 7 257330bd56e0c87c",
    "preemptive-rr 8 synplify one-hot 94 18.62817021239951 241 40 6 0c6b9123410261a9",
    "preemptive-rr 9 fpga_express one-hot 176 17.652259894404764 299 45 6 f6be88ae095c9251",
    "preemptive-rr 9 fpga_express compact 430 10.615327381833769 797 6 8 d725ec1342548fa3",
    "preemptive-rr 9 synplify one-hot 115 17.652259894404764 299 45 6 f6be88ae095c9251",
    "preemptive-rr 10 fpga_express one-hot 204 16.88340809951693 372 50 6 16c0c83005b158d1",
    "preemptive-rr 10 fpga_express compact 500 10.181508143017478 930 6 8 8e4cdb47e4a66a78",
    "preemptive-rr 10 synplify one-hot 133 16.88340809951693 372 50 6 16c0c83005b158d1",
];

#[test]
fn gray_prefix_and_preemptive_netlists_match_the_recorded_golden() {
    let actual = actual_other_rows();
    assert_eq!(actual, EXPECTED_OTHERS, "\n{}", actual.join("\n"));
}
