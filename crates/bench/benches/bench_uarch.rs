//! Microbenchmark: microarchitecture-simulator throughput
//! (instructions simulated per second), the cost floor under every
//! collection experiment.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use hbmd_malware::{AppClass, Sample, SampleId};
use hbmd_uarch::{Cpu, CpuConfig, StreamParams, SyntheticStream};

fn bench_simulator(c: &mut Criterion) {
    let mut group = c.benchmark_group("uarch");
    group.sample_size(20);
    const BUDGET: u64 = 100_000;
    group.throughput(Throughput::Elements(BUDGET));

    group.bench_function("synthetic_balanced_100k", |b| {
        b.iter(|| {
            let mut cpu = Cpu::new(CpuConfig::haswell());
            let mut stream = SyntheticStream::new(StreamParams::balanced(), 7);
            cpu.run(&mut stream, BUDGET);
            cpu.counters().total()
        });
    });

    // Rootkit has the most dTLB misses of the six classes (this sample:
    // ~92k per 320k instructions), so it times the TLB miss path.
    for class in [
        AppClass::Benign,
        AppClass::Rootkit,
        AppClass::Trojan,
        AppClass::Worm,
    ] {
        group.bench_with_input(
            BenchmarkId::new("sample_100k", class.name()),
            &class,
            |b, &class| {
                let sample = Sample::generate(SampleId(0), class, 11);
                b.iter(|| {
                    let mut cpu = Cpu::new(CpuConfig::haswell());
                    let mut stream = sample.stream();
                    cpu.run(&mut stream, BUDGET);
                    cpu.counters().total()
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_simulator);
criterion_main!(benches);
