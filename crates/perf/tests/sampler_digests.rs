//! Pinned output of the reference sampler: one FNV-1a-64 digest per
//! application class over every window's 16 feature values (f64 bits,
//! little-endian), for `Sample::generate(SampleId(i), class, 2018)`
//! under `SamplerConfig::paper()`. Any change to the simulator's caches,
//! TLBs, branch predictor, cost model or instruction streams moves a
//! digest; a change that only makes the simulator faster must not.

use hbmd_malware::{AppClass, Sample, SampleId};
use hbmd_obs::manifest::fnv1a_64;
use hbmd_perf::{Sampler, SamplerConfig};

const DIGESTS: [(AppClass, u64); AppClass::COUNT] = [
    (AppClass::Benign, 0x9225_24a8_30c1_9c90),
    (AppClass::Backdoor, 0x24ff_a2f0_e251_222d),
    (AppClass::Rootkit, 0x68c5_6be9_5ec5_a232),
    (AppClass::Trojan, 0xc303_68a3_e670_450b),
    (AppClass::Virus, 0x4eac_e6a5_dc0f_0f53),
    (AppClass::Worm, 0x4873_d039_26a9_353b),
];

fn digest(sampler: &Sampler, sample: &Sample) -> u64 {
    let bytes: Vec<u8> = sampler
        .collect_sample(sample)
        .iter()
        .flat_map(|window| window.as_slice().iter())
        .flat_map(|value| value.to_bits().to_le_bytes())
        .collect();
    fnv1a_64(&bytes)
}

#[test]
fn paper_sampler_output_is_pinned_per_class() {
    let sampler = Sampler::new(SamplerConfig::paper()).expect("valid");
    for (i, (class, expected)) in DIGESTS.into_iter().enumerate() {
        let sample = Sample::generate(SampleId(i as u32), class, 2018);
        let got = digest(&sampler, &sample);
        assert_eq!(
            got, expected,
            "{class:?}: digest {got:016x}, pinned {expected:016x}"
        );
    }
}
