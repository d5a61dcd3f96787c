//! Exact thread accounting of one `Router`, read from `/proc`.
//!
//! This binary runs no other router, so every `crosslight-cluster-*`
//! thread it sees belongs to the router under test; its backends' threads
//! carry the `crosslight-server-*` and `crosslight-runtime-*` prefixes.
//! The descriptor-exhaustion case runs in a child process (this same
//! binary, re-executed) so that its lowered open-file limit cannot starve
//! the other test.

#![cfg(target_os = "linux")]

use std::collections::BTreeSet;
use std::net::{SocketAddr, TcpListener};
use std::sync::Arc;
use std::time::{Duration, Instant};

use crosslight_cluster::backend::rendezvous_order;
use crosslight_cluster::router::{Router, RouterOptions};
use crosslight_core::variants::CrossLightVariant;
use crosslight_neural::workload::NetworkWorkload;
use crosslight_neural::zoo::PaperModel;
use crosslight_server::frontend::default_event_loops;
use crosslight_server::loadgen::{Client, ClientOptions};
use crosslight_server::server::{Server, ServerOptions};
use crosslight_server::wire::{
    EvalSpec, MetricsFormat, MetricsFrame, Request, RequestBody, ResponseBody,
};

/// `errno` for "too many open files".
const EMFILE: i32 = 24;

/// The `comm` names of this process's threads that start with `prefix`,
/// sorted.  The kernel truncates names to 15 bytes, so every router
/// thread reads `crosslight-clus`.
fn threads_named(prefix: &str) -> Vec<String> {
    let mut names = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("list /proc/self/task") {
        let Ok(task) = task else { continue };
        // A thread may exit between the listing and this read.
        if let Ok(comm) = std::fs::read_to_string(task.path().join("comm")) {
            let comm = comm.trim_end();
            if comm.starts_with(prefix) {
                names.push(comm.to_string());
            }
        }
    }
    names.sort();
    names
}

/// [`threads_named`] once it lists `count` threads, or after ten seconds:
/// a thread takes its name when it starts running, and leaves `/proc` a
/// moment after `join` returns.
fn threads_settled_at(prefix: &str, count: usize) -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let names = threads_named(prefix);
        if names.len() == count || Instant::now() >= deadline {
            return names;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

fn eval_spec() -> EvalSpec {
    EvalSpec::paper(CrossLightVariant::OptTed, PaperModel::Lenet5SignMnist)
}

fn connect(addr: SocketAddr) -> Client {
    Client::connect_with(addr, ClientOptions::with_deadline(Duration::from_secs(60)))
        .expect("connect to the router")
}

fn connect_and_eval(addr: SocketAddr, id: u64) -> Client {
    let mut client = connect(addr);
    let response = client.eval(id, &eval_spec()).expect("eval answered");
    assert!(
        matches!(response.body, ResponseBody::Eval(_)),
        "{response:?}"
    );
    client
}

#[test]
fn a_router_runs_exactly_acceptor_loops_links_and_retry_timer() {
    let backends: Vec<Server> = (0..2)
        .map(|_| {
            Server::bind(
                "127.0.0.1:0",
                ServerOptions::default().with_workers(1).with_event_loops(1),
            )
            .expect("bind a loopback backend")
        })
        .collect();
    let mut addrs: Vec<SocketAddr> = backends.iter().map(Server::local_addr).collect();
    // A third backend accepts connections and never reads from them.  It
    // goes where the eval's fingerprint ranks it last, so with the default
    // two replicas no eval is routed to it; every scrape waits on it.
    let silent = TcpListener::bind("127.0.0.1:0").expect("bind the silent backend");
    let table = PaperModel::all().map(|model| {
        Arc::new(NetworkWorkload::from_spec(&model.spec()).expect("Table I workloads are valid"))
    });
    let eval = eval_spec()
        .to_eval_request(0, &table)
        .expect("a valid spec");
    let silent_at = rendezvous_order(eval.key().fingerprint(), 3)[2];
    addrs.insert(
        silent_at,
        silent.local_addr().expect("silent backend address"),
    );
    // Detached: it blocks in `accept` until the test process exits.
    std::thread::spawn(move || {
        let held: Vec<_> = silent.incoming().collect();
        drop(held);
    });
    let health_timeout = Duration::from_secs(2);
    let options = RouterOptions::default()
        .with_failure_threshold(1_000)
        .with_health(
            Duration::from_millis(50),
            health_timeout,
            Duration::from_millis(250),
        );
    let router = Router::bind("127.0.0.1:0", &addrs, options).expect("bind router");
    // Acceptor, retry timer, event loops, and a link per backend.
    let expected = 2 + default_event_loops() + addrs.len();

    let first = connect_and_eval(router.local_addr(), 0);
    let names = threads_settled_at("crosslight-clus", expected);
    assert_eq!(names.len(), expected, "unexpected thread set: {names:?}");

    // Fifty more clients, all connected at once, add no thread.
    let more: Vec<Client> = (1..=50)
        .map(|id| connect_and_eval(router.local_addr(), id))
        .collect();
    let names = threads_named("crosslight-clus");
    assert_eq!(
        names.len(),
        expected,
        "threads grew with the client count: {names:?}"
    );

    // 32 `stats` and 32 `metrics` requests, pipelined: each waits on the
    // silent backend's link, and none adds a thread.
    let mut scraper = connect(router.local_addr());
    let sent = Instant::now();
    for id in 0..64 {
        let body = match id % 2 {
            0 => RequestBody::Stats,
            _ => RequestBody::Metrics {
                format: MetricsFormat::Json,
            },
        };
        scraper.send(&Request { id, body }).expect("send a scrape");
    }
    scraper.flush().expect("flush the scrapes");
    while router.stats().requests_total < 51 + 64 {
        assert!(
            sent.elapsed() < Duration::from_secs(10),
            "the router never read the scrapes"
        );
        std::thread::sleep(Duration::from_millis(5));
    }
    let names = threads_named("crosslight-clus");
    assert!(
        sent.elapsed() < health_timeout,
        "the count must be taken while the scrapes are outstanding"
    );
    assert_eq!(
        names.len(),
        expected,
        "threads grew with the scrape count: {names:?}"
    );
    let mut answered = BTreeSet::new();
    for _ in 0..64 {
        let response = scraper.recv().expect("every scrape is answered");
        let id = response.id.expect("scrape answers carry their id");
        match (id % 2, &response.body) {
            (0, ResponseBody::Stats(_)) | (1, ResponseBody::Metrics(MetricsFrame::Snapshot(_))) => {
            }
            _ => panic!("scrape {id}: unexpected answer {response:?}"),
        }
        answered.insert(id);
    }
    assert_eq!(answered, (0..64).collect());
    assert!(
        sent.elapsed() >= health_timeout,
        "a scrape was answered before the silent backend's part timed out"
    );

    drop((first, more, scraper));
    router.shutdown();
    let left = threads_settled_at("crosslight-clus", 0);
    assert!(left.is_empty(), "threads outlived shutdown: {left:?}");
    for backend in backends {
        backend.shutdown();
    }
}

/// Child half of `a_failed_router_bind_leaves_no_thread_behind`: a no-op
/// pass unless `CROSSLIGHT_ROUTER_BIND_FAILURE_CHILD` names the wake pair
/// to starve, `loop` or `link`.  It fills its descriptor table, frees
/// enough for the listener and every wake pair before the last event
/// loop's (or the last backend link's), binds a router, and prints
/// `BIND_FAILURE_RESULT bound=<bool> threads=<n>`.
#[test]
fn router_bind_failure_child() {
    let Ok(case) = std::env::var("CROSSLIGHT_ROUTER_BIND_FAILURE_CHILD") else {
        return;
    };
    // Lower the soft limit so filling the table stays cheap.
    let mut limit = libc::rlimit::default();
    // SAFETY: `limit` is a live, writable `struct rlimit` for the call.
    assert_eq!(
        unsafe { libc::getrlimit(libc::RLIMIT_NOFILE, &mut limit) },
        0
    );
    limit.rlim_cur = limit.rlim_max.min(64);
    // SAFETY: `limit` is a live `struct rlimit`, only read by the call.
    assert_eq!(unsafe { libc::setrlimit(libc::RLIMIT_NOFILE, &limit) }, 0);
    let mut fillers = Vec::new();
    loop {
        match std::fs::File::open("/dev/null") {
            Ok(file) => fillers.push(file),
            Err(err) if err.raw_os_error() == Some(EMFILE) => break,
            Err(err) => panic!("unexpected open failure: {err}"),
        }
        assert!(fillers.len() <= 64, "the lowered limit did not apply");
    }
    // The listener takes one descriptor; a wake pair briefly holds three
    // (its own listener and both socket ends) and keeps two.  The pairs are
    // made loops first, then one per backend link, so every pair before
    // the starved one fits, and the starved one is one descriptor short.
    let backends = 2;
    let pairs_before = match case.as_str() {
        "loop" => default_event_loops() - 1,
        "link" => default_event_loops() + backends - 1,
        other => panic!("unknown bind-failure case `{other}`"),
    };
    fillers.truncate(fillers.len() - (1 + 2 * pairs_before + 2));

    // Binding dials no backend, so any address will do.
    let backend: SocketAddr = "127.0.0.1:9".parse().expect("backend address");
    let outcome = Router::bind(
        "127.0.0.1:0",
        &vec![backend; backends],
        RouterOptions::default(),
    );
    // Listing /proc needs descriptors again.
    drop(fillers);
    let threads = threads_settled_at("crosslight-", 0);
    println!(
        "BIND_FAILURE_RESULT bound={} threads={}",
        outcome.is_ok(),
        threads.len()
    );
}

#[test]
fn a_failed_router_bind_leaves_no_thread_behind() {
    let exe = std::env::current_exe().expect("locate test binary");
    for case in ["loop", "link"] {
        let output = std::process::Command::new(&exe)
            .args([
                "router_bind_failure_child",
                "--exact",
                "--nocapture",
                "--test-threads=1",
            ])
            .env("CROSSLIGHT_ROUTER_BIND_FAILURE_CHILD", case)
            .output()
            .expect("run the bind-failure child");
        let stdout = String::from_utf8_lossy(&output.stdout);
        assert!(
            output.status.success(),
            "{case} child failed: {stdout}{}",
            String::from_utf8_lossy(&output.stderr)
        );
        // libtest prints its own progress without a newline, so the marker
        // may land mid-line.
        const MARKER: &str = "BIND_FAILURE_RESULT ";
        let result = stdout
            .lines()
            .find_map(|line| line.find(MARKER).map(|at| line[at + MARKER.len()..].trim()))
            .unwrap_or_else(|| panic!("{case} child printed no result: {stdout}"));
        assert_eq!(
            result, "bound=false threads=0",
            "a router bind that fails on its last {case} wake pair must leave no thread behind"
        );
    }
}
