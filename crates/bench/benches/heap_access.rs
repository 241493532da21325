//! Micro-benchmark of the simulated heap's hot access paths: the bulk
//! fill/copy fast paths against the per-word loops that run when a
//! cache-trace sink is attached, and the inlined scalar word accessors.

use criterion::{criterion_group, criterion_main, Criterion};
use std::hint::black_box;

use cache_sim::MemorySystem;
use simheap::{SimHeap, PAGE_SIZE, WORD};

const PAGES: u32 = 16;

fn bench_heap_access(c: &mut Criterion) {
    let mut g = c.benchmark_group("heap_access");
    g.sample_size(20);

    let len = PAGES * PAGE_SIZE / 2;

    g.bench_function("fill_64KB_bulk", |b| {
        let mut heap = SimHeap::new();
        let a = heap.sbrk_pages(PAGES);
        b.iter(|| heap.fill(black_box(a), len, 0x5A));
    });

    g.bench_function("fill_64KB_traced", |b| {
        let mut heap = SimHeap::new();
        let a = heap.sbrk_pages(PAGES);
        heap.attach_sink(Box::new(MemorySystem::default()));
        b.iter(|| heap.fill(black_box(a), len, 0x5A));
    });

    g.bench_function("copy_32KB_bulk", |b| {
        let mut heap = SimHeap::new();
        let a = heap.sbrk_pages(PAGES);
        heap.fill(a, len, 0xC3);
        b.iter(|| heap.copy(black_box(a + len), a, len));
    });

    g.bench_function("copy_32KB_traced", |b| {
        let mut heap = SimHeap::new();
        let a = heap.sbrk_pages(PAGES);
        heap.fill(a, len, 0xC3);
        heap.attach_sink(Box::new(MemorySystem::default()));
        b.iter(|| heap.copy(black_box(a + len), a, len));
    });

    g.bench_function("load_u32", |b| {
        let mut heap = SimHeap::new();
        let a = heap.sbrk_pages(1);
        heap.store_u32(a, 7);
        b.iter(|| black_box(heap.load_u32(black_box(a))));
    });

    g.bench_function("store_u32_page_scan", |b| {
        let mut heap = SimHeap::new();
        let a = heap.sbrk_pages(1);
        b.iter(|| {
            let mut cur = a;
            for i in 0..(PAGE_SIZE / WORD) {
                heap.store_u32(cur, i);
                cur = cur + WORD;
            }
        });
    });

    g.finish();
}

criterion_group!(benches, bench_heap_access);
criterion_main!(benches);
