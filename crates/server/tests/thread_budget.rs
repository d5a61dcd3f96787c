//! Exact thread accounting of one `Server`, read from `/proc`.
//!
//! This binary runs no other server, so every `crosslight-*` thread it sees
//! belongs to the server under test.  The descriptor-exhaustion case runs
//! in a child process (this same binary, re-executed) so that its lowered
//! open-file limit cannot starve the other test.

#![cfg(target_os = "linux")]

use std::collections::HashSet;
use std::time::{Duration, Instant};

use crosslight_core::variants::CrossLightVariant;
use crosslight_neural::zoo::PaperModel;
use crosslight_server::loadgen::Client;
use crosslight_server::server::{Server, ServerOptions};
use crosslight_server::wire::{EvalSpec, ResponseBody};

/// `errno` for "too many open files".
const EMFILE: i32 = 24;

/// The `comm` names of this process's `crosslight-*` threads, sorted.  The
/// kernel truncates names to 15 bytes, so server threads read
/// `crosslight-serv`.
fn crosslight_threads() -> Vec<String> {
    let mut names = Vec::new();
    for task in std::fs::read_dir("/proc/self/task").expect("list /proc/self/task") {
        let Ok(task) = task else { continue };
        // A thread may exit between the listing and this read.
        if let Ok(comm) = std::fs::read_to_string(task.path().join("comm")) {
            let comm = comm.trim_end();
            if comm.starts_with("crosslight-") {
                names.push(comm.to_string());
            }
        }
    }
    names.sort();
    names
}

/// [`crosslight_threads`] once joined threads have left `/proc`: `join`
/// returns as soon as a thread finishes, a moment before the kernel reaps
/// its task entry.  Gives up after ten seconds and returns what is left.
fn crosslight_threads_after_exit() -> Vec<String> {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let names = crosslight_threads();
        if names.is_empty() || Instant::now() >= deadline {
            return names;
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

#[test]
fn a_server_runs_exactly_acceptor_and_loops() {
    let server = Server::bind(
        "127.0.0.1:0",
        ServerOptions::default().with_workers(2).with_event_loops(2),
    )
    .expect("bind loopback server");

    // A thread names itself when it starts, so make the loops run before
    // counting: two connections land on both loops (round-robin).  The
    // specs below name both workers, which are shards, not threads.
    let mut workers_seen = HashSet::new();
    for _ in 0..2 {
        let mut client = Client::connect(server.local_addr()).expect("connect");
        for (i, (variant, model)) in CrossLightVariant::all()
            .into_iter()
            .zip(PaperModel::all())
            .enumerate()
        {
            let response = client
                .eval(i as u64, &EvalSpec::paper(variant, model))
                .expect("eval answered");
            let ResponseBody::Eval(frame) = response.body else {
                panic!("expected an eval frame, got {response:?}");
            };
            workers_seen.insert(frame.worker);
        }
    }
    assert_eq!(
        workers_seen.len(),
        2,
        "the probe evals must reach both workers"
    );

    let names = crosslight_threads();
    let server_threads = names
        .iter()
        .filter(|name| name.starts_with("crosslight-serv"))
        .count();
    let pool_threads = names
        .iter()
        .filter(|name| name.starts_with("crosslight-runt"))
        .count();
    // Acceptor and two event loops; the runtime owns no thread.
    assert_eq!(
        (server_threads, pool_threads, names.len()),
        (3, 0, 3),
        "unexpected thread set: {names:?}"
    );

    server.shutdown();
    let left = crosslight_threads_after_exit();
    assert!(left.is_empty(), "threads outlived shutdown: {left:?}");
}

/// Child half of `a_failed_bind_leaves_no_thread_behind`: a no-op pass
/// unless `CROSSLIGHT_BIND_FAILURE_CHILD` is set.  It fills its descriptor
/// table, frees exactly enough for the listener and one event loop's wake
/// pair, binds a two-loop server, and prints
/// `BIND_FAILURE_RESULT bound=<bool> threads=<n>`.
#[test]
fn bind_failure_child() {
    if std::env::var_os("CROSSLIGHT_BIND_FAILURE_CHILD").is_none() {
        return;
    }
    let options = ServerOptions::default().with_workers(2).with_event_loops(2);

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
    // (its own listener and both socket ends) and keeps two.  So the first
    // loop's pair fits and the second loop's does not.
    fillers.truncate(fillers.len() - 4);

    let outcome = Server::bind("127.0.0.1:0", options);
    // Listing /proc needs descriptors again.
    drop(fillers);
    let threads = crosslight_threads_after_exit();
    println!(
        "BIND_FAILURE_RESULT bound={} threads={}",
        outcome.is_ok(),
        threads.len()
    );
}

#[test]
fn a_failed_bind_leaves_no_thread_behind() {
    let exe = std::env::current_exe().expect("locate test binary");
    let output = std::process::Command::new(exe)
        .args([
            "bind_failure_child",
            "--exact",
            "--nocapture",
            "--test-threads=1",
        ])
        .env("CROSSLIGHT_BIND_FAILURE_CHILD", "1")
        .output()
        .expect("run the bind-failure child");
    let stdout = String::from_utf8_lossy(&output.stdout);
    assert!(
        output.status.success(),
        "child failed: {stdout}{}",
        String::from_utf8_lossy(&output.stderr)
    );
    // libtest prints its own progress without a newline, so the marker
    // may land mid-line.
    const MARKER: &str = "BIND_FAILURE_RESULT ";
    let result = stdout
        .lines()
        .find_map(|line| line.find(MARKER).map(|at| line[at + MARKER.len()..].trim()))
        .unwrap_or_else(|| panic!("child printed no result: {stdout}"));
    assert_eq!(
        result, "bound=false threads=0",
        "a bind that fails on its second wake pair must leave no thread behind"
    );
}
