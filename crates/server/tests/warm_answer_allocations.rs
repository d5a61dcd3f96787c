//! Locks the heap allocations one warm eval answer costs, client and server
//! together: a default in-process `Server` answers the paper mix from its
//! result cache, and one `loadgen::Client` pipelines it round after round.
//!
//! A counting global allocator wraps the system allocator and counts every
//! allocation on every thread of the process, so the server's event loops
//! count along with the client.  Everything runs inside a single `#[test]`
//! so no concurrent test can perturb the counter.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

use crosslight_server::loadgen::{Client, LoadGenOptions};
use crosslight_server::server::{Server, ServerOptions};
use crosslight_server::wire::{EvalSpec, Response, ResponseBody};

struct CountingAllocator;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAllocator {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

/// Pipelined rounds of the whole mix that are counted.
const ROUNDS: usize = 200;

/// The allocation budget of one warm answer.
const BUDGET: f64 = 4.0;

/// Pipelines one round of `specs` and checks every answer is a cache hit.
fn warm_round(client: &mut Client, specs: &[EvalSpec]) -> Vec<Response> {
    let answers = client.eval_pipelined(specs, 0).expect("pipelined round");
    assert_eq!(answers.len(), specs.len());
    answers
}

#[test]
fn a_warm_answer_stays_within_its_allocation_budget() {
    let server = Server::bind("127.0.0.1:0", ServerOptions::default()).expect("bind server");
    let mut client = Client::connect(server.local_addr()).expect("connect client");
    let specs = LoadGenOptions::paper_mix(1, 1, 0).scenarios;

    // The first round fills the result cache and the second memoizes every
    // answer tail, so each counted round is served warm end to end.
    for _ in 0..2 {
        warm_round(&mut client, &specs);
    }
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    for _ in 0..ROUNDS {
        for answer in warm_round(&mut client, &specs) {
            let ResponseBody::Eval(frame) = answer.body else {
                panic!("expected an eval answer, got {answer:?}");
            };
            assert!(frame.cache_hit, "every counted answer is a cache hit");
        }
    }
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;
    let per_answer = allocations as f64 / (ROUNDS * specs.len()) as f64;
    println!("{per_answer:.2} allocations per warm answer ({allocations} in total)");
    assert!(
        per_answer <= BUDGET,
        "a warm answer made {per_answer:.2} allocations, over its budget of {BUDGET}"
    );

    drop(client);
    server.shutdown();
}
